//! Acceptance suite for the `easybo-service` TCP session service.
//!
//! The headline contract: an optimization run served over a *real*
//! socket pair — to remote workers whose links drop, duplicate,
//! reorder, stall, and kill frames — finishes with a trace, dataset,
//! and schedule byte-identical to a clean in-process
//! `run_async_resilient` over the same black box. Plus protocol
//! conformance properties over the frame/message codecs, a committed
//! golden fixture pinning wire format v2, and a session-manager
//! invariants property pinning the lease conservation law and the
//! residency bound under arbitrary interleavings.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use easybo::{Algorithm, EasyBo, Parallelism};
use easybo_circuits::opamp::TwoStageOpAmp;
use easybo_circuits::Circuit;
use easybo_exec::{
    AsyncPolicy, BlackBox, BusyPoint, CostedFunction, Dataset, EvalOutcome, FaultPlan,
    FaultyBlackBox, RetryPolicy, RunResult, SimTimeModel, VirtualExecutor,
};
use easybo_opt::{sampling, Bounds};
use easybo_persist::decode_snapshot;
use easybo_service::{
    decode_frame, decode_message, encode_frame, encode_message, exemplar_messages, read_frame,
    write_frame, Message, OpenRequest, Role, ServiceClient, ServiceServer, SessionFactory,
    SessionManager, SessionSpec, WireError, WireFaultPlan, WorkerClient, PROTOCOL_VERSION,
};
use easybo_telemetry::Telemetry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------

fn lock(m: &Arc<Mutex<SessionManager>>) -> std::sync::MutexGuard<'_, SessionManager> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The paper's 10-d two-stage op-amp with a seeded simulation-time
/// model — the same black box lives on the manager's baseline side and
/// in every remote worker's registry; purity makes the copies agree.
fn opamp_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let amp = TwoStageOpAmp::new();
    let bounds = amp.bounds().clone();
    let time = SimTimeModel::new(&bounds, 38.7, 0.25, 2020);
    CostedFunction::new("two-stage-opamp", bounds, time, move |x: &[f64]| amp.fom(x))
}

fn opamp_optimizer(seed: u64, batch: usize, max_evals: usize) -> EasyBo {
    let bounds = TwoStageOpAmp::new().bounds().clone();
    let mut opt = EasyBo::new(bounds);
    opt.batch_size(batch)
        .initial_points(6)
        .max_evals(max_evals)
        .seed(seed);
    opt
}

/// The uninterrupted in-process run every service run must reproduce.
fn in_process_baseline(
    opt: &EasyBo,
    batch: usize,
    max_evals: usize,
    bb: &dyn BlackBox,
) -> RunResult {
    VirtualExecutor::new(batch).run_async_resilient(
        bb,
        &opt.initial_design_points(),
        max_evals,
        &mut opt.build_async_policy(),
        opt.retry(),
        &Telemetry::disabled(),
    )
}

/// A [`SessionSpec`] that mirrors `opt`'s configuration exactly, so the
/// manager's decision stream matches the in-process run bit for bit.
fn spec_for(opt: &EasyBo, batch: usize, max_evals: usize, bench: &str) -> SessionSpec {
    let factory = opt.clone();
    SessionSpec {
        bench: bench.to_string(),
        workers: batch,
        max_evals,
        init: opt.initial_design_points(),
        retry: opt.retry().clone(),
        fingerprint: opt.config_fingerprint(),
        policy: Box::new(move || Box::new(factory.build_async_policy())),
    }
}

/// Spawns one worker thread per fault plan, joins them all, and
/// asserts every loop exited cleanly (server said `Bye`).
fn drive_workers<F>(addr: SocketAddr, plans: &[WireFaultPlan], register: F)
where
    F: Fn(&mut WorkerClient) + Send + Sync + Clone + 'static,
{
    let handles: Vec<_> = plans
        .iter()
        .map(|&plan| {
            let register = register.clone();
            std::thread::spawn(move || {
                let mut worker = WorkerClient::connect_with_chaos(addr, plan);
                register(&mut worker);
                worker.run()
            })
        })
        .collect();
    for h in handles {
        let summary = h
            .join()
            .expect("worker thread panicked")
            .expect("worker loop failed");
        assert!(summary.evaluated >= summary.accepted);
    }
}

fn assert_same_run(service: &RunResult, baseline: &RunResult, tag: &str) {
    assert_eq!(
        service.trace.to_csv(),
        baseline.trace.to_csv(),
        "trace diverged: {tag}"
    );
    assert_eq!(service.data, baseline.data, "dataset diverged: {tag}");
    assert_eq!(
        service.schedule, baseline.schedule,
        "schedule diverged: {tag}"
    );
}

/// Comparison for runs that were evicted and rehydrated mid-flight.
/// Same contract as in-process checkpoint/resume: the trajectory
/// (trace, dataset) and the executed spans are identical, but span
/// *insertion order* may differ — `to_parts` strips in-flight spans
/// and rehydration re-issues those attempts after the committed ones.
fn assert_same_resumed_run(service: &RunResult, baseline: &RunResult, tag: &str) {
    assert_eq!(
        service.trace.to_csv(),
        baseline.trace.to_csv(),
        "trace diverged: {tag}"
    );
    assert_eq!(service.data, baseline.data, "dataset diverged: {tag}");
    let sorted = |r: &RunResult| {
        let mut spans = r.schedule.spans().to_vec();
        spans.sort_by(|a, b| {
            (a.task, a.worker)
                .cmp(&(b.task, b.worker))
                .then(a.start.total_cmp(&b.start))
        });
        spans
    };
    assert_eq!(
        service.schedule.workers(),
        baseline.schedule.workers(),
        "worker count diverged: {tag}"
    );
    assert_eq!(
        sorted(service),
        sorted(baseline),
        "span contents diverged: {tag}"
    );
}

// ---------------------------------------------------------------------
// Satellite 1: seeded e2e runs through a loopback socket.
// ---------------------------------------------------------------------

/// Headline invariant: parallelism {1, 8} × chaos rates {0, 10, 30}%.
/// Every service run — real TCP, three remote workers, seeded
/// transport faults — must match the clean in-process trajectory byte
/// for byte.
#[test]
fn chaos_service_runs_reproduce_in_process_trajectories() {
    let max_evals = 16;
    for &batch in &[1usize, 8] {
        let opt = opamp_optimizer(11, batch, max_evals);
        let bb = opamp_blackbox();
        let baseline = in_process_baseline(&opt, batch, max_evals, &bb);
        for &rate in &[0.0, 0.1, 0.3] {
            let manager = SessionManager::new(4);
            let mut server =
                ServiceServer::start(manager, "127.0.0.1:0", None).expect("bind loopback");
            let id = lock(&server.manager()).open_session(spec_for(
                &opt,
                batch,
                max_evals,
                "two-stage-opamp",
            ));
            let plans: Vec<_> = (0..3)
                .map(|w| WireFaultPlan::chaos(rate, 0xC0FF_EE00 + w as u64))
                .collect();
            drive_workers(server.local_addr(), &plans, |w| {
                w.register("two-stage-opamp", Box::new(opamp_blackbox()));
            });
            server.stop();
            let result = lock(&server.manager())
                .take_result(id)
                .expect("session should have finished");
            assert_same_run(&result, &baseline, &format!("batch {batch} chaos {rate}"));
        }
    }
}

/// Chaos on the link *and* faults in the simulator: the retry/backoff
/// machinery (failed attempts, exponential delays) must thread through
/// the wire protocol without perturbing the trajectory.
#[test]
fn service_run_with_simulator_faults_and_retries_is_bit_identical() {
    let bounds = Bounds::unit_cube(1).unwrap();
    let mk_bb = || {
        let time = SimTimeModel::new(&bounds, 30.0, 0.4, 3);
        let inner = CostedFunction::new("toy-faulty", bounds.clone(), time, |x: &[f64]| {
            1.0 - (x[0] - 0.6).abs()
        });
        FaultyBlackBox::new(
            inner,
            FaultPlan {
                seed: 7,
                fail_rate: 0.25,
                ..FaultPlan::default()
            },
        )
    };
    let (batch, max_evals) = (4, 14);
    let mut opt = EasyBo::new(bounds.clone());
    opt.batch_size(batch)
        .initial_points(6)
        .max_evals(max_evals)
        .seed(2)
        .retry_policy(RetryPolicy::default().max_attempts(6).backoff(3.0, 2.0));
    let baseline = in_process_baseline(&opt, batch, max_evals, &mk_bb());

    let mut server = ServiceServer::start(SessionManager::new(2), "127.0.0.1:0", None).unwrap();
    let id = lock(&server.manager()).open_session(spec_for(&opt, batch, max_evals, "toy-faulty"));
    let plans = [
        WireFaultPlan::chaos(0.15, 41),
        WireFaultPlan::chaos(0.15, 42),
    ];
    let bounds_for_workers = bounds.clone();
    drive_workers(server.local_addr(), &plans, move |w| {
        let time = SimTimeModel::new(&bounds_for_workers, 30.0, 0.4, 3);
        let inner = CostedFunction::new(
            "toy-faulty",
            bounds_for_workers.clone(),
            time,
            |x: &[f64]| 1.0 - (x[0] - 0.6).abs(),
        );
        let faulty = FaultyBlackBox::new(
            inner,
            FaultPlan {
                seed: 7,
                fail_rate: 0.25,
                ..FaultPlan::default()
            },
        );
        w.register("toy-faulty", Box::new(faulty));
    });
    server.stop();
    let result = lock(&server.manager()).take_result(id).expect("finished");
    assert_same_run(&result, &baseline, "faulty blackbox with retries");
}

/// A worker that leases work and dies without reporting (plus
/// kill/drop-heavy links on the healthy workers) must not change the
/// trajectory: the dead connection's lease is reclaimed and re-leased,
/// and evaluation purity makes the replacement result identical.
#[test]
fn dead_workers_and_dropped_connections_do_not_perturb_the_run() {
    let (batch, max_evals) = (4, 12);
    let opt = opamp_optimizer(5, batch, max_evals);
    let bb = opamp_blackbox();
    let baseline = in_process_baseline(&opt, batch, max_evals, &bb);

    let mut server = ServiceServer::start(SessionManager::new(2), "127.0.0.1:0", None).unwrap();
    let id =
        lock(&server.manager()).open_session(spec_for(&opt, batch, max_evals, "two-stage-opamp"));

    // A rogue worker speaking the raw protocol: handshake, lease one
    // evaluation, then vanish without a TellResult.
    {
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        write_frame(
            &mut stream,
            &encode_message(&Message::Hello {
                version: PROTOCOL_VERSION,
                role: Role::Worker,
            }),
        )
        .unwrap();
        let ack = decode_message(&read_frame(&mut stream).unwrap()).unwrap();
        assert!(matches!(ack, Message::HelloAck { version } if version == PROTOCOL_VERSION));
        write_frame(&mut stream, &encode_message(&Message::AskWork { req: 1 })).unwrap();
        let reply = decode_message(&read_frame(&mut stream).unwrap()).unwrap();
        assert!(
            matches!(reply, Message::Work { .. }),
            "rogue worker should have been leased work, got {reply:?}"
        );
        // Dropping the stream here abandons the lease.
    }

    // Wait for the server to notice the dead connection and reclaim.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = lock(&server.manager()).stats();
        if stats.reclaimed >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "lease was never reclaimed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Healthy-ish workers on hostile links (drops + mid-frame kills).
    let hostile = WireFaultPlan {
        seed: 99,
        drop_rate: 0.08,
        dup_rate: 0.0,
        reorder_rate: 0.0,
        stall_rate: 0.0,
        kill_rate: 0.08,
    };
    let plans = [
        hostile,
        WireFaultPlan {
            seed: 100,
            ..hostile
        },
    ];
    drive_workers(server.local_addr(), &plans, |w| {
        w.register("two-stage-opamp", Box::new(opamp_blackbox()));
    });
    server.stop();
    let manager = server.manager();
    let mut m = lock(&manager);
    assert!(m.stats().reclaimed >= 1);
    let result = m.take_result(id).expect("finished");
    drop(m);
    assert_same_run(&result, &baseline, "dead worker + hostile links");
}

/// Admin-driven checkpoint → evict → rehydrate over the socket,
/// mid-run, with a durable snapshot written server-side. The resumed
/// session must finish exactly where the uninterrupted one does.
#[test]
fn socket_driven_evict_and_rehydrate_mid_run_preserves_the_trajectory() {
    let (batch, max_evals) = (4, 16);
    let opt = opamp_optimizer(23, batch, max_evals);
    let bb = opamp_blackbox();
    let baseline = in_process_baseline(&opt, batch, max_evals, &bb);

    let dir = std::env::temp_dir().join(format!("easybo-service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut server =
        ServiceServer::start(SessionManager::new(4), "127.0.0.1:0", Some(dir.clone())).unwrap();
    let id =
        lock(&server.manager()).open_session(spec_for(&opt, batch, max_evals, "two-stage-opamp"));
    let addr = server.local_addr();

    let worker_handles: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut w = WorkerClient::connect(addr);
                w.register("two-stage-opamp", Box::new(opamp_blackbox()));
                w.run()
            })
        })
        .collect();

    let mut admin = ServiceClient::connect(addr, Role::Admin);
    // Wait until the run is genuinely mid-flight, then checkpoint and
    // evict it out from under the workers.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, _, _, _, tells) = admin.stats().expect("stats rpc");
        if tells >= 4 {
            break;
        }
        assert!(Instant::now() < deadline, "run never reached 4 tells");
        std::thread::sleep(Duration::from_millis(5));
    }
    let bytes = admin.checkpoint(id).expect("checkpoint rpc");
    assert!(bytes > 0, "checkpoint should report a non-empty snapshot");
    let snap_path = dir.join(format!("session_{id}.snap"));
    let on_disk = std::fs::read(&snap_path).expect("server should write the snapshot file");
    let snap = decode_snapshot(&on_disk).expect("durable snapshot decodes");
    assert_eq!(snap.config_fingerprint, opt.config_fingerprint());

    admin.evict(id).expect("evict rpc");
    // The next worker ask auto-rehydrates when residency frees up, so
    // an explicit rehydrate may find the session already resident —
    // both outcomes mean the session is running again.
    match admin.rehydrate(id) {
        Ok(()) | Err(WireError::Protocol(_)) => {}
        Err(e) => panic!("rehydrate rpc failed fatally: {e}"),
    }

    for h in worker_handles {
        h.join()
            .expect("worker panicked")
            .expect("worker loop failed");
    }
    server.stop();
    let manager = server.manager();
    let mut m = lock(&manager);
    assert!(m.stats().evictions >= 1);
    assert!(m.stats().rehydrations >= 1);
    let result = m.take_result(id).expect("finished");
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
    assert_same_resumed_run(&result, &baseline, "socket evict/rehydrate mid-run");
}

/// Many sessions share one worker pool under a residency budget
/// smaller than the session count: LRU eviction plus ask-side
/// rehydration must drive every session to completion, each matching
/// its own in-process baseline, while memory residency stays bounded.
#[test]
fn many_sessions_share_the_pool_under_a_residency_budget() {
    let bounds = Bounds::unit_cube(2).unwrap();
    let mk_bb = || {
        let time = SimTimeModel::new(&bounds, 20.0, 0.3, 9);
        CostedFunction::new("toy-quadratic", bounds.clone(), time, |x: &[f64]| {
            (-((x[0] - 0.35).powi(2) + (x[1] - 0.65).powi(2))).exp()
        })
    };
    let (batch, max_evals) = (2, 10);
    let seeds = [20u64, 21, 22, 23, 24];

    let mut baselines = Vec::new();
    let mut opts = Vec::new();
    for &seed in &seeds {
        let mut opt = EasyBo::new(bounds.clone());
        opt.batch_size(batch)
            .initial_points(4)
            .max_evals(max_evals)
            .seed(seed);
        baselines.push(in_process_baseline(&opt, batch, max_evals, &mk_bb()));
        opts.push(opt);
    }

    let budget = 2;
    let mut server =
        ServiceServer::start(SessionManager::new(budget), "127.0.0.1:0", None).unwrap();
    let ids: Vec<u64> = opts
        .iter()
        .map(|opt| {
            let manager = server.manager();
            let mut m = lock(&manager);
            let id = m.open_session(spec_for(opt, batch, max_evals, "toy-quadratic"));
            assert!(
                m.resident_count() <= budget,
                "residency bound violated at open"
            );
            id
        })
        .collect();

    let bounds_for_workers = bounds.clone();
    let plans = [
        WireFaultPlan::clean(0),
        WireFaultPlan::clean(1),
        WireFaultPlan::clean(2),
    ];
    drive_workers(server.local_addr(), &plans, move |w| {
        let time = SimTimeModel::new(&bounds_for_workers, 20.0, 0.3, 9);
        let bb = CostedFunction::new(
            "toy-quadratic",
            bounds_for_workers.clone(),
            time,
            |x: &[f64]| (-((x[0] - 0.35).powi(2) + (x[1] - 0.65).powi(2))).exp(),
        );
        w.register("toy-quadratic", Box::new(bb));
    });
    server.stop();
    let manager = server.manager();
    let mut m = lock(&manager);
    assert!(m.all_done(), "every session should have drained");
    assert_eq!(m.finished_count(), seeds.len());
    // 5 opens into a budget of 2 force at least 3 evictions up front.
    assert!(m.stats().evictions >= 3, "stats: {:?}", m.stats());
    assert!(m.stats().rehydrations >= 3, "stats: {:?}", m.stats());
    for (i, id) in ids.iter().enumerate() {
        let result = m.take_result(*id).expect("finished");
        assert_same_resumed_run(
            &result,
            &baselines[i],
            &format!("session seed {}", seeds[i]),
        );
    }
}

// ---------------------------------------------------------------------
// Heterogeneous algorithm portfolio: three different policies, one
// shared pool, opened over the wire through the session factory.
// ---------------------------------------------------------------------

/// The session factory a deployment would install: algorithm keys
/// resolved through the [`Algorithm`] registry, benches from a fixed
/// local table, the initial design drawn server-side from the seed.
fn registry_factory() -> Arc<SessionFactory> {
    Arc::new(|open: &OpenRequest| {
        let algo = Algorithm::from_key(&open.algo)
            .ok_or_else(|| format!("unknown algorithm key '{}'", open.algo))?;
        let bounds = match open.bench.as_str() {
            "two-stage-opamp" => TwoStageOpAmp::new().bounds().clone(),
            other => return Err(format!("unknown bench '{other}'")),
        };
        if algo
            .async_policy(bounds.clone(), open.seed, Parallelism::sequential())
            .is_none()
        {
            return Err(format!(
                "algorithm '{}' has no asynchronous policy",
                open.algo
            ));
        }
        let mut rng = StdRng::seed_from_u64(open.seed);
        let init = sampling::latin_hypercube(&bounds, open.n_init, &mut rng);
        let seed = open.seed;
        Ok(SessionSpec {
            bench: open.bench.clone(),
            workers: open.workers,
            max_evals: open.max_evals,
            init,
            retry: RetryPolicy::none(),
            fingerprint: seed ^ ((algo.index() as u64) << 32),
            policy: Box::new(move || {
                algo.async_policy(bounds.clone(), seed, Parallelism::sequential())
                    .expect("async-capable checked at open")
            }),
        })
    })
}

/// The uninterrupted in-process run an `OpenSession`-opened session
/// must reproduce: same seed-derived initial design, same policy built
/// through the same registry call.
fn portfolio_baseline(
    algo: Algorithm,
    seed: u64,
    workers: usize,
    max_evals: usize,
    n_init: usize,
) -> RunResult {
    let bb = opamp_blackbox();
    let bounds = TwoStageOpAmp::new().bounds().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let init = sampling::latin_hypercube(&bounds, n_init, &mut rng);
    let mut policy = algo
        .async_policy(bounds, seed, Parallelism::sequential())
        .expect("async-capable");
    VirtualExecutor::new(workers).run_async_resilient(
        &bb,
        &init,
        max_evals,
        policy.as_mut(),
        &RetryPolicy::none(),
        &Telemetry::disabled(),
    )
}

/// Tentpole acceptance: three sessions running three *different*
/// algorithms (EasyBO, ε-greedy, pessimistic), opened over the wire
/// via `OpenSession`, share one budget-2 worker pool. Each trajectory
/// must be byte-identical to its own in-process baseline, including
/// across a mid-run admin evict/rehydrate of one of them.
#[test]
fn heterogeneous_algorithms_share_one_pool_via_open_session() {
    let (workers_per_session, max_evals, n_init) = (2usize, 10usize, 6usize);
    let cells = [
        (Algorithm::EasyBo, 31u64),
        (Algorithm::EpsGreedy, 32),
        (Algorithm::PessimisticBo, 33),
    ];
    let baselines: Vec<RunResult> = cells
        .iter()
        .map(|&(algo, seed)| portfolio_baseline(algo, seed, workers_per_session, max_evals, n_init))
        .collect();

    let mut server = ServiceServer::start_with_factory(
        SessionManager::new(2),
        "127.0.0.1:0",
        None,
        Some(registry_factory()),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut admin = ServiceClient::connect(addr, Role::Admin);

    // Unknown keys, retired ones included, are rejected with a wire
    // error, not a hang or panic.
    for key in ["no-such-algo", "ts"] {
        match admin.open_session("two-stage-opamp", key, 1, 2, 4, 2) {
            Err(WireError::Protocol(msg)) => assert!(msg.contains(key), "got: {msg}"),
            other => panic!("expected protocol error for {key}, got {other:?}"),
        }
    }
    // Sync-only algorithms have no async policy and are refused up front.
    match admin.open_session("two-stage-opamp", "pbo", 1, 2, 4, 2) {
        Err(WireError::Protocol(msg)) => assert!(msg.contains("pbo"), "got: {msg}"),
        other => panic!("expected protocol error, got {other:?}"),
    }

    let ids: Vec<u64> = cells
        .iter()
        .map(|&(algo, seed)| {
            admin
                .open_session(
                    "two-stage-opamp",
                    algo.key(),
                    seed,
                    workers_per_session,
                    max_evals,
                    n_init,
                )
                .expect("open session over the wire")
        })
        .collect();
    assert!(lock(&server.manager()).resident_count() <= 2);

    let worker_handles: Vec<_> = (0..3u64)
        .map(|w| {
            std::thread::spawn(move || {
                let mut worker =
                    WorkerClient::connect_with_chaos(addr, WireFaultPlan::chaos(0.1, 0xBABE + w));
                worker.register("two-stage-opamp", Box::new(opamp_blackbox()));
                worker.run()
            })
        })
        .collect();

    // Mid-run, force one session through an explicit evict/rehydrate
    // cycle on top of whatever the budget-2 LRU already does. The
    // budget may have beaten us to the evict (already evicted) or the
    // ask path to the rehydrate (already resident) — both arrive as
    // protocol errors and both mean the session cycled as intended.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, _, _, _, tells) = admin.stats().expect("stats rpc");
        if tells >= 4 {
            break;
        }
        assert!(Instant::now() < deadline, "pool never reached 4 tells");
        std::thread::sleep(Duration::from_millis(5));
    }
    match admin.evict(ids[1]) {
        Ok(()) | Err(WireError::Protocol(_)) => {}
        Err(e) => panic!("evict rpc failed fatally: {e}"),
    }
    match admin.rehydrate(ids[1]) {
        Ok(()) | Err(WireError::Protocol(_)) => {}
        Err(e) => panic!("rehydrate rpc failed fatally: {e}"),
    }

    for h in worker_handles {
        h.join()
            .expect("worker panicked")
            .expect("worker loop failed");
    }
    server.stop();
    let manager = server.manager();
    let mut m = lock(&manager);
    assert!(m.all_done(), "every session should have drained");
    assert!(m.stats().evictions >= 1, "stats: {:?}", m.stats());
    for (i, id) in ids.iter().enumerate() {
        let result = m.take_result(*id).expect("finished");
        assert_same_resumed_run(
            &result,
            &baselines[i],
            &format!("algorithm {}", cells[i].0.key()),
        );
    }
}

// ---------------------------------------------------------------------
// Satellite 2: protocol conformance + golden wire fixture.
// ---------------------------------------------------------------------

/// Deterministic value stream for property cases (the same splitmix64
/// idiom the resume suite uses).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() & 0xff) as u8).collect()
    }
}

proptest! {
    /// Frames round-trip over arbitrary payload bytes, both the buffer
    /// decoder and the streaming reader, including back-to-back frames.
    #[test]
    fn frame_codec_round_trips_any_payload(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed);
        let n = g.below(600);
        let payload = g.bytes(n);
        let frame = encode_frame(&payload);
        let (back, used) = decode_frame(&frame).unwrap();
        prop_assert_eq!(used, frame.len());
        prop_assert_eq!(&back, &payload);

        let mut cursor = std::io::Cursor::new(frame.clone());
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), payload.clone());

        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        let (first, consumed) = decode_frame(&two).unwrap();
        prop_assert_eq!(first, payload);
        let (second, _) = decode_frame(&two[consumed..]).unwrap();
        prop_assert_eq!(second, back);
    }

    /// Corruption never panics or hangs: a single bit flip anywhere in
    /// a frame is rejected, every truncation is rejected, and a
    /// garbage prefix reports `BadMagic`.
    #[test]
    fn corrupted_frames_are_rejected_with_structured_errors(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed ^ 0x5eed);
        let n = g.below(128);
        let payload = g.bytes(n);
        let frame = encode_frame(&payload);

        let bit = g.below(frame.len() * 8);
        let mut flipped = frame.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_frame(&flipped).is_err(), "bit {} flip accepted", bit);

        let cut = g.below(frame.len());
        prop_assert!(decode_frame(&frame[..cut]).is_err(), "cut at {} accepted", cut);
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        prop_assert!(read_frame(&mut cursor).is_err(), "stream cut at {} accepted", cut);

        let mut prefixed = vec![(g.next() & 0xff) as u8];
        prefixed.extend_from_slice(&frame);
        prop_assert!(
            matches!(decode_frame(&prefixed), Err(WireError::BadMagic { .. })),
            "garbage prefix not reported as BadMagic"
        );
    }

    /// The message codec is loss-free over full 64-bit value patterns
    /// (NaNs and infinities included) — compared as re-encoded bytes,
    /// which sidesteps NaN's `PartialEq` hole.
    #[test]
    fn message_codec_round_trips_full_bit_patterns(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed ^ 0x77);
        let x: Vec<f64> = (0..g.below(5)).map(|_| f64::from_bits(g.next())).collect();
        let outcome = match g.below(4) {
            0 => EvalOutcome::Ok,
            1 => EvalOutcome::Failed { reason: format!("f{}", g.next() & 0xffff) },
            2 => EvalOutcome::NonFinite,
            _ => EvalOutcome::TimedOut,
        };
        let messages = [
            Message::Work {
                req: g.next(),
                session: g.next(),
                task: g.below(1 << 20),
                attempt: 1 + g.below(8),
                worker: g.below(64),
                x,
                bench: format!("bench-{}", g.next() & 0xff),
            },
            Message::TellResult {
                req: g.next(),
                session: g.next(),
                task: g.below(1 << 20),
                attempt: 1 + g.below(8),
                value: f64::from_bits(g.next()),
                cost: f64::from_bits(g.next()),
                outcome,
            },
        ];
        for m in &messages {
            let bytes = encode_message(m);
            let back = decode_message(&bytes).unwrap();
            prop_assert_eq!(encode_message(&back), bytes);
        }
    }

    /// Arbitrary garbage fed straight to the message decoder returns a
    /// structured error (or happens to decode) — it never panics.
    #[test]
    fn message_decoder_never_panics_on_garbage(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed ^ 0xdead);
        let n = g.below(96);
        let junk = g.bytes(n);
        let _ = decode_message(&junk);
    }
}

/// Exhaustive single-bit-flip and truncation sweep over one frame of
/// every message variant: each mutation must surface as an `Err`, and
/// every truncated message payload must be rejected by the decoder.
#[test]
fn every_exemplar_frame_rejects_all_truncations_and_bit_flips() {
    for m in exemplar_messages() {
        let payload = encode_message(&m);
        let frame = encode_frame(&payload);
        for cut in 0..frame.len() {
            assert!(
                decode_frame(&frame[..cut]).is_err(),
                "truncation at {cut} accepted for {m:?}"
            );
        }
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_frame(&bad).is_err(),
                "bit flip at {bit} accepted for {m:?}"
            );
        }
        for cut in 0..payload.len() {
            assert!(
                decode_message(&payload[..cut]).is_err(),
                "payload truncation at {cut} accepted for {m:?}"
            );
        }
    }
}

/// Committed golden fixture: wire format v2 as bytes on disk — one
/// frame per message variant. Any drift in the frame header, the
/// message tags, or the field encodings fails here before it can break
/// a deployed worker fleet.
#[test]
fn golden_wire_format_v2_is_pinned_on_disk() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/golden_wire_v2.bin");
    let mut expected = Vec::new();
    for m in exemplar_messages() {
        expected.extend_from_slice(&encode_frame(&encode_message(&m)));
    }
    if std::env::var("EASYBO_REGEN_GOLDEN").is_ok() {
        std::fs::write(path, &expected).unwrap();
    }
    let committed = std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "missing golden wire fixture {path}: {e}; regenerate with \
             EASYBO_REGEN_GOLDEN=1 cargo test -p easybo-integration --test service golden"
        )
    });
    assert!(
        committed == expected,
        "wire encoding no longer matches the committed v{PROTOCOL_VERSION} fixture. If the \
         format change is intentional, bump easybo_service::PROTOCOL_VERSION and regenerate \
         the fixture with: EASYBO_REGEN_GOLDEN=1 cargo test -p easybo-integration --test \
         service golden"
    );
    let mut offset = 0;
    let mut decoded = Vec::new();
    while offset < committed.len() {
        let (payload, used) = decode_frame(&committed[offset..]).unwrap();
        decoded.push(decode_message(&payload).unwrap());
        offset += used;
    }
    assert_eq!(
        decoded,
        exemplar_messages(),
        "golden frames decode to the exemplars"
    );
}

// ---------------------------------------------------------------------
// Satellite 3: session-manager invariants under random interleavings.
// ---------------------------------------------------------------------

/// A deterministic, stateless policy: its proposal is a pure function
/// of the observed/busy counts, so eviction (which rebuilds the policy
/// fresh — `snapshot_state` is `None`) cannot perturb the replay.
struct SweepPolicy;

impl AsyncPolicy for SweepPolicy {
    fn select_next(&mut self, data: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
        let n = (data.len() + busy.len()) as f64;
        vec![(0.13 + 0.07 * n).fract()]
    }
}

fn toy_bb() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let bounds = Bounds::unit_cube(1).unwrap();
    let time = SimTimeModel::new(&bounds, 12.0, 0.3, 5);
    CostedFunction::new("toy", bounds, time, |x: &[f64]| 1.0 - (x[0] - 0.4).abs())
}

fn toy_spec(fingerprint: u64) -> SessionSpec {
    SessionSpec {
        bench: "toy".to_string(),
        workers: 2,
        max_evals: 6,
        init: vec![vec![0.2], vec![0.8]],
        retry: RetryPolicy::none(),
        fingerprint,
        policy: Box::new(|| Box::new(SweepPolicy)),
    }
}

macro_rules! assert_manager_invariants {
    ($m:expr) => {{
        let s = $m.stats();
        prop_assert!(
            s.asks == s.tells + s.reclaimed + $m.active_leases() as u64,
            "lease conservation violated: {:?} active={}",
            s,
            $m.active_leases()
        );
        prop_assert!(s.accepted >= s.tells, "accepted < tells: {:?}", s);
        prop_assert!(
            $m.resident_count() <= $m.resident_budget(),
            "residency bound violated: {} > {}",
            $m.resident_count(),
            $m.resident_budget()
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The conservation law `asks == tells + reclaimed + active_leases`
    /// and the residency bound hold after *every* operation in a random
    /// interleaving of opens, asks, tells (including duplicates and
    /// late deliveries), connection deaths, evictions, rehydrations,
    /// and checkpoints — and the system can always drain to completion
    /// afterwards.
    #[test]
    fn manager_invariants_hold_under_random_interleavings(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed ^ 0xa5a5);
        let bb = toy_bb();
        let mut m = SessionManager::new(3);
        let mut known: Vec<u64> = Vec::new();
        let mut held: Vec<easybo_service::Work> = Vec::new();
        let mut last_told: Option<easybo_service::Work> = None;

        let steps = 20 + g.below(60);
        for _ in 0..steps {
            match g.below(8) {
                0 => {
                    if known.len() < 6 {
                        known.push(m.open_session(toy_spec(g.next())));
                    }
                }
                1 => {
                    let conn = 1 + g.below(3) as u64;
                    if let Some(w) = m.ask(conn) {
                        held.push(w);
                    }
                }
                2 => {
                    if !held.is_empty() {
                        let w = held.remove(g.below(held.len()));
                        let e = w.evaluate(&bb);
                        m.tell(9, w.session, w.task, w.attempt, e.value, e.cost, e.resolved_outcome());
                        last_told = Some(w);
                    }
                }
                3 => {
                    // Duplicate (possibly late) delivery of the most
                    // recent result; must never corrupt the counters.
                    if let Some(w) = &last_told {
                        let e = w.evaluate(&bb);
                        m.tell(9, w.session, w.task, w.attempt, e.value, e.cost, e.resolved_outcome());
                    }
                }
                4 => {
                    m.drop_connection(1 + g.below(3) as u64);
                }
                5 => {
                    if !known.is_empty() {
                        let id = known[g.below(known.len())];
                        let _ = m.evict(id);
                    }
                }
                6 => {
                    let evicted = m.evicted_ids();
                    if !evicted.is_empty() {
                        let _ = m.rehydrate(evicted[g.below(evicted.len())]);
                    }
                }
                _ => {
                    if !known.is_empty() {
                        let id = known[g.below(known.len())];
                        let _ = m.checkpoint(id);
                    }
                }
            }
            assert_manager_invariants!(m);
        }

        // Drain: deliver held results, serve fresh asks, pull evicted
        // sessions back in — until everything has finished.
        let mut guard = 0;
        while !m.all_done() {
            guard += 1;
            prop_assert!(guard < 10_000, "drain loop did not converge");
            if let Some(w) = held.pop() {
                let e = w.evaluate(&bb);
                m.tell(7, w.session, w.task, w.attempt, e.value, e.cost, e.resolved_outcome());
            } else if let Some(w) = m.ask(7) {
                let e = w.evaluate(&bb);
                m.tell(7, w.session, w.task, w.attempt, e.value, e.cost, e.resolved_outcome());
            } else if let Some(&id) = m.evicted_ids().first() {
                let _ = m.rehydrate(id);
            }
            assert_manager_invariants!(m);
        }
        prop_assert_eq!(m.active_leases(), 0);
        for id in &known {
            prop_assert!(m.take_result(*id).is_some(), "session {} never finished", id);
        }
    }
}

/// Residency never exceeds the budget no matter how many sessions are
/// opened, and the overflow is evicted — the memory-bound contract the
/// service bench measures at the 1000-session scale.
#[test]
fn residency_stays_bounded_as_sessions_pile_up() {
    let budget = 8;
    let mut m = SessionManager::new(budget);
    let mut ids = Vec::new();
    for i in 0..40u64 {
        ids.push(m.open_session(toy_spec(i)));
        assert!(m.resident_count() <= budget);
    }
    assert_eq!(m.resident_count() + m.evicted_count(), 40);
    assert!(m.stats().evictions >= 32);

    // The pool can still drain every one of them.
    let bb = toy_bb();
    let mut guard = 0;
    while !m.all_done() {
        guard += 1;
        assert!(guard < 50_000, "drain did not converge");
        if let Some(w) = m.ask(1) {
            let e = w.evaluate(&bb);
            m.tell(
                1,
                w.session,
                w.task,
                w.attempt,
                e.value,
                e.cost,
                e.resolved_outcome(),
            );
        } else if let Some(&id) = m.evicted_ids().first() {
            m.rehydrate(id).expect("rehydrate evicted session");
        }
    }
    assert_eq!(m.finished_count(), 40);
    for id in ids {
        assert!(m.take_result(id).is_some());
    }
}
