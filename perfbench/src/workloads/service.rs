//! `service_mixed`: a loopback `ServiceServer` serving EasyBO and
//! model-free screening sessions to two worker connections, with more
//! sessions than the resident budget.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use easybo::EasyBo;
use easybo_exec::{AsyncPolicy, BlackBox, BusyPoint, Dataset, RunResult, VirtualExecutor};
use easybo_opt::Bounds;
use easybo_service::{
    ManagerStats, Message, OpenRequest, Role, ServiceClient, ServiceServer, SessionFactory,
    SessionManager, SessionSpec, Work,
};
use easybo_telemetry::Telemetry;

use super::{
    eval_layers, opamp_blackbox, policy_layers, span_layers, sub_seed, traced_handle, Layers, Plan,
    RunOut, OPAMP_BENCH,
};
use crate::probe::{EvalStamp, PolicyClock, TimedAsync};
use crate::tally::Tally;

/// Worker connections (closed loop: each sends its next request only
/// after the previous reply).
const CONNECTIONS: usize = 2;
/// Sessions held in memory; the rest wait as snapshots.
const RESIDENT: usize = 4;
/// Sessions per unit, and which of them run EasyBO.
const SESSIONS: usize = 12;
const EASYBO_EVERY: usize = 4;
/// EasyBO sessions: virtual workers, initial design, budget.
const EASYBO_SHAPE: (usize, usize, usize) = (2, 8, 24);
/// Screening sessions: the whole budget is the initial design.
const SCREEN_SHAPE: (usize, usize, usize) = (2, 48, 48);
/// Distinct session sets per run.
const CYCLES: usize = 4;
const SALT: u64 = 3;
/// Back-off after a `NoWork` reply, as in `WorkerClient::run`.
const NO_WORK_BACKOFF: Duration = Duration::from_millis(1);
/// A unit that takes longer than this has hung.
const UNIT_DEADLINE: Duration = Duration::from_secs(60);

/// The open requests of session set `cycle`.
fn requests(seed: u64, cycle: usize) -> Vec<OpenRequest> {
    (0..SESSIONS)
        .map(|j| {
            let easybo = j % EASYBO_EVERY == EASYBO_EVERY / 2;
            let (algo, (workers, n_init, max_evals)) = if easybo {
                ("easybo", EASYBO_SHAPE)
            } else {
                ("screen", SCREEN_SHAPE)
            };
            OpenRequest {
                bench: OPAMP_BENCH.to_string(),
                algo: algo.to_string(),
                seed: sub_seed(seed, SALT, (cycle * SESSIONS + j) as u64),
                workers,
                max_evals,
                n_init,
            }
        })
        .collect()
}

/// Policy of a screening session. Its budget is its initial design, so
/// it is never consulted; the wrapper's call count proves that.
struct Screening {
    center: Vec<f64>,
}

impl AsyncPolicy for Screening {
    fn select_next(&mut self, _data: &Dataset, _busy: &[BusyPoint]) -> Vec<f64> {
        self.center.clone()
    }
}

/// Where the policies of one unit report their time.
#[derive(Clone, Default)]
struct Clocks {
    easybo: PolicyClock,
    screen: PolicyClock,
}

/// The session factory the server runs for every `OpenSession`.
fn spec(
    req: &OpenRequest,
    bounds: &Bounds,
    telemetry: &Telemetry,
    clocks: &Clocks,
) -> Result<SessionSpec, String> {
    if req.bench != OPAMP_BENCH {
        return Err(format!("unknown bench {}", req.bench));
    }
    let mut opt = EasyBo::new(bounds.clone());
    opt.batch_size(req.workers)
        .initial_points(req.n_init)
        .max_evals(req.max_evals)
        .seed(req.seed)
        .telemetry(telemetry.clone());
    let policy: Box<dyn Fn() -> Box<dyn AsyncPolicy + Send> + Send> = match req.algo.as_str() {
        "easybo" => {
            let opt = opt.clone();
            let clock = clocks.easybo.clone();
            Box::new(move || {
                Box::new(TimedAsync {
                    inner: opt.build_async_policy(),
                    clock: clock.clone(),
                })
            })
        }
        "screen" => {
            let center: Vec<f64> = bounds
                .pairs()
                .iter()
                .map(|&(lo, hi)| 0.5 * (lo + hi))
                .collect();
            let clock = clocks.screen.clone();
            Box::new(move || {
                Box::new(TimedAsync {
                    inner: Screening {
                        center: center.clone(),
                    },
                    clock: clock.clone(),
                })
            })
        }
        other => return Err(format!("unknown algorithm {other}")),
    };
    Ok(SessionSpec {
        bench: req.bench.clone(),
        workers: req.workers,
        max_evals: req.max_evals,
        init: opt.initial_design_points(),
        retry: opt.retry().clone(),
        fingerprint: opt.config_fingerprint(),
        policy,
    })
}

/// The in-process result every served session must reproduce.
fn in_process(req: &OpenRequest, bb: &dyn BlackBox) -> Result<RunResult, String> {
    let spec = spec(req, bb.bounds(), &Telemetry::disabled(), &Clocks::default())?;
    let mut policy = (spec.policy)();
    VirtualExecutor::new(spec.workers)
        .run_session_resilient(
            bb,
            &spec.init,
            spec.max_evals,
            policy.as_mut(),
            &spec.retry,
            &Telemetry::disabled(),
            None,
        )
        .map_err(|e| e.to_string())
}

/// What one worker connection saw.
#[derive(Default)]
struct WorkerLog {
    waits_s: Vec<f64>,
    ask_rpc_s: f64,
    tell_rpc_s: f64,
    asks: u64,
    no_work: u64,
    stamps: Vec<EvalStamp>,
    tally: Tally,
}

/// One worker connection: the `WorkerClient::run` loop, timed. The
/// handshake happens before `ready`, so it counts as set-up.
fn worker(addr: SocketAddr, bb: &dyn BlackBox, ready: &Barrier, deadline: Instant) -> WorkerLog {
    let mut log = WorkerLog::default();
    let mut client = ServiceClient::connect(addr, Role::Worker);
    let mut req = 0u64;
    let mut next = || {
        req += 1;
        req
    };
    let r = next();
    log.tally.op(matches!(
        client.rpc(r, &Message::Stats { req: r }),
        Ok(Message::StatsReply { .. })
    ));
    ready.wait();
    loop {
        let waiting = Instant::now();
        let work = loop {
            let r = next();
            let t0 = Instant::now();
            let reply = client.rpc(r, &Message::AskWork { req: r });
            log.ask_rpc_s += t0.elapsed().as_secs_f64();
            log.asks += 1;
            match reply {
                Ok(Message::Work {
                    session,
                    task,
                    attempt,
                    worker,
                    x,
                    bench,
                    ..
                }) => {
                    log.tally.op(true);
                    break Some(Work {
                        session,
                        task,
                        attempt,
                        worker,
                        x,
                        bench,
                    });
                }
                Ok(Message::NoWork { .. }) if Instant::now() < deadline => {
                    log.tally.op(true);
                    log.no_work += 1;
                    std::thread::sleep(NO_WORK_BACKOFF);
                }
                Ok(Message::Bye { .. }) => {
                    log.tally.op(true);
                    break None;
                }
                other => {
                    log.tally.check(false, || format!("ask failed: {other:?}"));
                    break None;
                }
            }
        };
        let Some(work) = work else {
            return log;
        };
        log.waits_s.push(waiting.elapsed().as_secs_f64());
        if work.bench != bb.name() {
            log.tally
                .check(false, || format!("work for unknown bench {}", work.bench));
            return log;
        }
        let enter = Instant::now();
        let e = work.evaluate(bb);
        log.stamps.push(EvalStamp {
            enter,
            exit: Instant::now(),
            ok: e.resolved_outcome().is_ok(),
        });
        log.tally.op(e.resolved_outcome().is_ok());
        let r = next();
        let tell = Message::TellResult {
            req: r,
            session: work.session,
            task: work.task,
            attempt: work.attempt,
            value: e.value,
            cost: e.cost,
            outcome: e.resolved_outcome(),
        };
        let t0 = Instant::now();
        let reply = client.rpc(r, &tell);
        log.tell_rpc_s += t0.elapsed().as_secs_f64();
        if !matches!(reply, Ok(Message::TellAck { .. })) {
            log.tally.check(false, || format!("tell failed: {reply:?}"));
            return log;
        }
        log.tally.op(true);
    }
}

/// What one unit produced.
struct Unit {
    wall_s: f64,
    results: Vec<Option<RunResult>>,
    stats: ManagerStats,
    logs: Vec<WorkerLog>,
}

/// Set-up, drain and tear-down of one session set.
fn unit(
    out: &mut RunOut,
    reqs: &[OpenRequest],
    telemetry: &Telemetry,
    clocks: &Clocks,
) -> Result<Unit, String> {
    let t_setup = Instant::now();
    let bb = opamp_blackbox();
    let bounds = bb.bounds().clone();
    let factory_telemetry = telemetry.clone();
    let factory_clocks = clocks.clone();
    let factory: Arc<SessionFactory> =
        Arc::new(move |req: &OpenRequest| spec(req, &bounds, &factory_telemetry, &factory_clocks));
    let manager = SessionManager::new(RESIDENT).with_telemetry(telemetry.clone());
    let mut server = ServiceServer::start_with_factory(manager, "127.0.0.1:0", None, Some(factory))
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut ids = Vec::with_capacity(reqs.len());
    {
        let mut admin = ServiceClient::connect(addr, Role::Admin);
        for r in reqs {
            let id =
                admin.open_session(&r.bench, &r.algo, r.seed, r.workers, r.max_evals, r.n_init);
            out.tally.op(id.is_ok());
            ids.push(id.map_err(|e| format!("open session: {e}"))?);
        }
    }
    let ready = Barrier::new(CONNECTIONS + 1);
    let deadline = Instant::now() + UNIT_DEADLINE;
    let (wall_s, logs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| worker(addr, &bb, &ready, deadline)))
            .collect();
        ready.wait();
        let t0 = Instant::now();
        out.setup_s.push(t0.duration_since(t_setup).as_secs_f64());
        let logs: Vec<WorkerLog> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (t0.elapsed().as_secs_f64(), logs)
    });
    server.stop();
    let manager = server.manager();
    let mut m = manager
        .lock()
        .map_err(|_| "manager lock poisoned".to_string())?;
    Ok(Unit {
        wall_s,
        results: ids.iter().map(|&id| m.take_result(id)).collect(),
        stats: m.stats(),
        logs,
    })
}

/// Runs the workload.
pub fn run(plan: Plan) -> RunOut {
    let mut out = RunOut::default();
    let bb = opamp_blackbox();
    let sets: Vec<Vec<OpenRequest>> = (0..CYCLES).map(|c| requests(plan.seed, c)).collect();
    // Reference results, computed outside every timed region.
    let expected: Vec<Vec<Result<RunResult, String>>> = sets
        .iter()
        .map(|set| set.iter().map(|r| in_process(r, &bb)).collect())
        .collect();
    let min_units = if plan.trace { 2 * CYCLES } else { CYCLES };
    let started = Instant::now();
    let mut done = 0;
    while plan.more(started, done, min_units) {
        let cycle = done % CYCLES;
        // Traced mode alternates untraced and traced units.
        let traced = plan.trace && (done / CYCLES) % 2 == 1;
        let (telemetry, sink) = if traced {
            let (t, s) = traced_handle();
            (t, Some(s))
        } else {
            (Telemetry::disabled(), None)
        };
        let clocks = Clocks::default();
        match unit(&mut out, &sets[cycle], &telemetry, &clocks) {
            Ok(u) => {
                check_unit(
                    &mut out,
                    &u,
                    &sets[cycle],
                    &expected[cycle],
                    &clocks,
                    done < CYCLES,
                );
                if let Some(sink) = sink {
                    out.traced_unit_s.push(u.wall_s);
                    out.layers.push(layers(&u, &sink, &telemetry, &clocks));
                } else {
                    out.unit_s.push(u.wall_s);
                    for log in &u.logs {
                        out.waits_s.extend_from_slice(&log.waits_s);
                    }
                }
            }
            Err(e) => out
                .tally
                .check(false, || format!("service unit failed: {e}")),
        }
        done += 1;
    }
    out
}

/// Every session finished with exactly the in-process result, and no
/// screening session ever consulted its policy.
fn check_unit(
    out: &mut RunOut,
    u: &Unit,
    reqs: &[OpenRequest],
    expected: &[Result<RunResult, String>],
    clocks: &Clocks,
    first_cycle: bool,
) {
    for log in &u.logs {
        out.tally.merge(log.tally);
    }
    for ((req, got), want) in reqs.iter().zip(&u.results).zip(expected) {
        let same = match (got, want) {
            (Some(got), Ok(want)) => {
                got == want
                    && got.trace.to_csv() == want.trace.to_csv()
                    && got.data.len() == req.max_evals
                    && got.best_value().is_finite()
            }
            _ => false,
        };
        out.tally.check(same, || {
            format!(
                "session {} (seed {}) differs from its in-process run",
                req.algo, req.seed
            )
        });
        if let (true, Some(got)) = (first_cycle, got) {
            out.best.push(got.best_value());
            out.makespan.push(got.total_time());
        }
    }
    out.tally.check(clocks.screen.read().1 == 0, || {
        "a screening session ran its policy".to_string()
    });
}

/// Per-layer values of one traced unit.
fn layers(
    u: &Unit,
    sink: &crate::spans::WallSpans,
    telemetry: &Telemetry,
    clocks: &Clocks,
) -> Layers {
    let mut layers = Layers::new();
    span_layers(sink, telemetry, &mut layers);
    policy_layers(
        &mut layers,
        ("core.policy_s", "core.policy_calls"),
        &clocks.easybo,
    );
    let policy_s = clocks.easybo.read().0;
    let ask_s: f64 = u.logs.iter().map(|l| l.ask_rpc_s).sum();
    let tell_s: f64 = u.logs.iter().map(|l| l.tell_rpc_s).sum();
    let asks: u64 = u.logs.iter().map(|l| l.asks).sum();
    let no_work: u64 = u.logs.iter().map(|l| l.no_work).sum();
    layers.insert("service.ask_rpc_s", ask_s);
    layers.insert("service.tell_rpc_s", tell_s);
    layers.insert("service.policy_s", policy_s);
    layers.insert("service.wire_lock_s", ask_s + tell_s - policy_s);
    layers.insert("service.nowork_frac", no_work as f64 / asks.max(1) as f64);
    layers.insert("service.evictions", u.stats.evictions as f64);
    layers.insert("service.rehydrations", u.stats.rehydrations as f64);
    layers.insert("service.stale_tells", u.stats.stale_tells as f64);
    let stamps: Vec<EvalStamp> = u
        .logs
        .iter()
        .flat_map(|l| l.stamps.iter().copied())
        .collect();
    eval_layers(&mut layers, &stamps);
    layers
}
