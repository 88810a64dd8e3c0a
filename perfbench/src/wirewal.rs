//! `wire-wal`: the static-1k population configured and registered over
//! loopback through one `Client`, against an `ssa_net::Server` in this
//! process that journals to a fresh data directory with `ssa-server`'s
//! default fsync policy and snapshot cadence.
//!
//! The engine work is static-1k's; on top come framing, codec, session
//! threads, admission, WAL appends, snapshots and replay. The gap between
//! the two workloads isolates the network and durability layers.

use crate::check::{same_digests, same_state, same_top_bids};
use crate::clock::Stopwatch;
use crate::inproc::{blocks, replay, Measured};
use crate::ops::{exec, span_name, Op, OpLog, Outcome, Population, Rng, FAILED};
use crate::report::Report;
use crate::static1k::{click_probs, market_config, populate, Size, POPULATION_SEED};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{probe, RunConfig};
use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignId, QueryRequest};
use ssa_core::{PricingScheme, ShardedMarketplace, UserAttrs, WdMethod};
use ssa_durable::{recover, Durability, FsyncPolicy};
use ssa_net::proto::MarketConfig;
use ssa_net::server::build_market;
use ssa_net::{Client, Request, Response, Server, ServerConfig, ServerHandle};
use ssa_workload::SectionVWorkload;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// `ssa-server`'s snapshot cadence (`--snapshot-every`) when not given.
const SNAPSHOT_EVERY: u64 = 10_000;
/// Entries read back per keyword at the end of the run.
const TOP_BIDS: usize = 50;

/// The marketplace `ssa-server` boots with when given no flags; the
/// client's `Configure` replaces it.
fn boot_config() -> MarketConfig {
    MarketConfig {
        slots: 15,
        keywords: 10,
        seed: 42,
        method: WdMethod::Reduced,
        pricing: PricingScheme::Gsp,
        shards: 1,
        pruned: false,
        warm_start: true,
    }
}

/// Requests kept in flight in the pipelined phase.
fn window(cfg: &RunConfig) -> usize {
    if cfg.tiny {
        4
    } else {
        32
    }
}

/// Starts a journalling server on `dir`, as `ssa-server --data-dir` does
/// on an empty directory.
pub fn start_server(dir: &Path, config: ServerConfig) -> (ServerHandle, Durability) {
    let _ = std::fs::remove_dir_all(dir);
    let (recovered, durability) =
        Durability::open(dir, FsyncPolicy::Off, SNAPSHOT_EVERY).expect("data directory opens");
    assert!(recovered.is_none(), "data directory starts empty");
    let market = build_market(&boot_config()).expect("boot configuration is valid");
    let state = market.capture_state().expect("a fresh market captures");
    durability
        .log_configure(&state.config)
        .expect("configure is journalled");
    let server = Server::bind(
        "127.0.0.1:0",
        market,
        ServerConfig {
            durability: Some(durability.clone()),
            ..config
        },
    )
    .expect("loopback binds")
    .spawn();
    (server, durability)
}

/// Runs one closed-loop operation over the wire. A `Failed` or
/// `Overloaded` reply, or a transport error, is a failed operation.
pub fn wire_exec(client: &mut Client, op: Op) -> Outcome {
    let ack = |r: Result<(), ssa_net::NetError>| r.map_or(Outcome::Failed, |()| Outcome::Ack);
    match op {
        Op::Serve(kw) => client.serve(kw).map_or(Outcome::Failed, Outcome::Auction),
        Op::Pause(id) => ack(client.pause_campaign(id)),
        Op::Resume(id) => ack(client.resume_campaign(id)),
        Op::Update(id, cents) => ack(client.update_bid(id, Money::from_cents(cents))),
        Op::Batch { .. } => unreachable!("the wire workload sends no batches"),
    }
}

fn wire_span(op: &Op) -> &'static str {
    match op {
        Op::Serve(_) => "client.serve",
        Op::Pause(_) => "client.pause",
        Op::Resume(_) => "client.resume",
        _ => "client.update_bid",
    }
}

/// Sends `Serve` requests keeping `window` in flight, in whole windows
/// (at least one), until `duration` has passed at a window boundary;
/// then drains. Logs
/// each request with its reply's digest, records the completion rate of
/// each window (auctions/s) in `m`, and returns the per-request wall
/// latencies (ms).
#[allow(clippy::too_many_arguments)]
pub fn pipelined(
    client: &mut Client,
    pop: &Population,
    rng: &mut Rng,
    log: &mut OpLog,
    window: usize,
    duration: Duration,
    tracer: &mut Tracer,
    m: &mut Measured,
) -> Samples {
    let mut latency = Samples::default();
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let start = Instant::now();
    let mut sending = true;
    let mut sent = 0usize;
    let mut done = 0usize;
    let mut mark = Stopwatch::start();
    loop {
        while sending && in_flight.len() < window {
            if sent > 0 && sent.is_multiple_of(window) && start.elapsed() >= duration {
                sending = false;
                break;
            }
            let kw = rng.below(pop.keywords);
            let request = Request::Serve {
                keyword: kw as u64,
                attrs: UserAttrs::new(),
            };
            let index = log.ops.len();
            log.push(Op::Serve(kw), &Outcome::Failed);
            let sent_at = Instant::now();
            let id = client.send_request(&request).expect("loopback send");
            in_flight.insert(id, (index, sent_at));
            sent += 1;
        }
        if in_flight.is_empty() {
            break;
        }
        // A refusal is answered before earlier admitted requests finish,
        // so replies are matched by id.
        let (id, response) = client.read_response().expect("loopback reply");
        let now = Instant::now();
        let (index, sent_at) = in_flight.remove(&id).expect("reply to a request in flight");
        tracer.record("client.pipelined_serve", id, sent_at, now);
        latency.push((now - sent_at).as_secs_f64() * 1e3);
        if let Response::Served(auction) = response {
            log.set(index, &Outcome::Auction(auction.to_response()));
        }
        done += 1;
        if done.is_multiple_of(window) {
            m.record_rate(window as u64, mark.took());
            mark = Stopwatch::start();
        }
    }
    latency
}

/// Sends `Serve` requests on a fixed schedule of `rate` per second for
/// `duration`, whether or not earlier replies have come back, and reads
/// replies between sends. Returns each request's latency from when it
/// was due, and how late each send was, in ms.
pub fn open_loop(
    client: &mut Client,
    pop: &Population,
    rng: &mut Rng,
    log: &mut OpLog,
    rate: f64,
    duration: Duration,
) -> (Samples, Samples) {
    let mut latency = Samples::default();
    let mut late = Samples::default();
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let total = (rate * duration.as_secs_f64()).round() as usize;
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < total || !in_flight.is_empty() {
        let due = start + Duration::from_secs_f64(sent as f64 / rate);
        let now = Instant::now();
        if sent < total && (now >= due || in_flight.is_empty()) {
            if now < due {
                std::thread::sleep(due - now);
            }
            let kw = rng.below(pop.keywords);
            let index = log.ops.len();
            log.push(Op::Serve(kw), &Outcome::Failed);
            let request = Request::Serve {
                keyword: kw as u64,
                attrs: UserAttrs::new(),
            };
            let id = client.send_request(&request).expect("loopback send");
            late.push((Instant::now() - due).as_secs_f64() * 1e3);
            in_flight.insert(id, (index, due));
            sent += 1;
        } else {
            let (id, response) = client.read_response().expect("loopback reply");
            let (index, due) = in_flight.remove(&id).expect("reply to a request in flight");
            latency.push((Instant::now() - due).as_secs_f64() * 1e3);
            if let Response::Served(auction) = response {
                log.set(index, &Outcome::Auction(auction.to_response()));
            }
        }
    }
    (latency, late)
}

struct Wire {
    server: ServerHandle,
    client: Client,
    durability: Durability,
    workload: SectionVWorkload,
    pop: Population,
    rng: Rng,
    log: OpLog,
}

impl Wire {
    fn shut_down(mut self) -> Durability {
        self.client
            .shutdown_server()
            .expect("server acknowledges shutdown");
        self.server.join();
        self.durability
    }
}

/// Boots a journalling server, configures and registers the population
/// over the wire, and warms up with closed-loop serves.
fn set_up(cfg: &RunConfig, size: &Size, dir: &Path, tracer: &mut Tracer) -> Wire {
    let workload = SectionVWorkload::generate(size.section_v(POPULATION_SEED));
    let (server, durability) = start_server(dir, ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("loopback connects");
    let config = market_config(&workload.config, cfg.shards);
    tracer
        .span("client.configure", 0, || client.configure(&config))
        .expect("configure accepted");
    for (i, (bidder, probs)) in workload
        .bidders
        .iter()
        .zip(click_probs(&workload))
        .enumerate()
    {
        let advertiser = tracer
            .span("client.register_advertiser", 0, || {
                client.register_advertiser(&format!("advertiser-{i}"))
            })
            .expect("advertiser registers");
        for (keyword, &(value, bid, _)) in bidder.keywords.iter().enumerate() {
            tracer
                .span("client.add_campaign", 0, || {
                    client.add_campaign(
                        advertiser,
                        keyword,
                        Money::from_cents(bid.max(0)),
                        Money::from_cents(value),
                        None,
                        Some(probs.clone()),
                    )
                })
                .expect("campaign accepted");
        }
    }
    let pop = Population::of(&workload, true);
    let mut rng = Rng::new(cfg.seed);
    let mut log = OpLog::default();
    for _ in 0..size.warmup / 2 {
        let op = Op::Serve(rng.below(pop.keywords));
        let outcome = wire_exec(&mut client, op);
        log.push(op, &outcome);
    }
    Wire {
        server,
        client,
        durability,
        workload,
        pop,
        rng,
        log,
    }
}

/// The twin: the same configuration built and populated in process.
fn twin(
    workload: &SectionVWorkload,
    shards: usize,
    tracer: &mut Tracer,
) -> (ShardedMarketplace, f64) {
    let mut market = build_market(&market_config(&workload.config, shards)).expect("valid");
    let start = Instant::now();
    populate(&mut market, workload, tracer);
    (market, start.elapsed().as_secs_f64())
}

fn top_bids_of(
    lists: impl Iterator<Item = Vec<(CampaignId, Money)>>,
) -> Vec<Vec<(CampaignId, i64)>> {
    lists
        .map(|l| l.into_iter().map(|(id, m)| (id, m.cents())).collect())
        .collect()
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Report {
    let size = Size::of(cfg);
    let mut report = Report::default();
    let dir = cfg.data_dir.join("wal");
    let mut setups = Measured::default();
    let mut kept: Option<Wire> = None;
    // A wire setup takes about a second, so fewer of them than in process.
    for _ in 0..size.setups.min(5) {
        if let Some(previous) = kept.take() {
            previous.shut_down();
        }
        setups.calibrate();
        let watch = Stopwatch::start();
        let span = tracer.enter("phase.setup", 0);
        let wire = set_up(cfg, &size, &dir, tracer);
        tracer.exit(span);
        setups.record_setup(watch.took());
        setups.calibrate();
        kept = Some(wire);
    }
    let mut wire = kept.expect("at least one setup");

    // After each phase, outside its timing, the in-process twin applies
    // the same operations and every reply must equal the twin's. Traced,
    // a second twin serves them one auction per `serve_batch` for the
    // engine's phase reports.
    let (mut twin_market, twin_populate_s) = twin(&wire.workload, cfg.shards, tracer);
    let mut engine = tracer
        .on()
        .then(|| twin(&wire.workload, cfg.shards, &mut Tracer::new(false)).0);
    let mut engine_m = Measured::default();
    let mut twin_serve_ms = Samples::default();
    let mut responses = Vec::new();
    let mut journalled = None;
    let mut checkpoint = |log: &OpLog, tracer: &mut Tracer| {
        let span = tracer.enter("phase.check", 0);
        let traced = tracer.on();
        let twin_digests = replay(&mut twin_market, log, |_, outcome, took| {
            if let Outcome::Auction(r) = outcome {
                twin_serve_ms.push(took.wall.as_secs_f64() * 1e3);
                if traced && responses.len() < 5000 {
                    responses.push(r.clone());
                }
            }
        });
        report.check(same_digests(&log.digests, &twin_digests));
        tracer.exit(span);
        if let Some(engine) = engine.as_mut() {
            for (i, op) in log.ops.iter().enumerate() {
                if log.digests[i] == FAILED {
                    continue;
                }
                let batch: Vec<QueryRequest> = match *op {
                    Op::Serve(kw) => vec![QueryRequest::new(kw)],
                    _ => Vec::new(),
                };
                let op = match *op {
                    Op::Serve(_) => Op::Batch { start: 0, len: 1 },
                    other => other,
                };
                let span = tracer.enter(span_name(&op), i as u64 + 1);
                let watch = Stopwatch::start();
                let outcome = exec(engine, op, &batch);
                let took = watch.took();
                tracer.exit(span);
                engine_m.record(&op, took, &outcome);
            }
            journalled.get_or_insert_with(|| log.prefix(probe::JOURNALLED_AUCTIONS));
        }
    };

    // Closed loop (static-1k's rounds, one request outstanding) and the
    // pipelined window, alternating in blocks as in process.
    let mut closed = Measured::default();
    let mut pipelined_ms = Samples::default();
    let (n, each) = blocks(cfg.seconds);
    for _ in 0..n {
        closed.calibrate();
        let phase = tracer.enter("phase.closed_loop", 0);
        let start = Instant::now();
        while start.elapsed() < each {
            for op in wire.pop.closed_round(&mut wire.rng) {
                let span = tracer.enter(wire_span(&op), wire.log.attempted() + 1);
                let watch = Stopwatch::start();
                let outcome = wire_exec(&mut wire.client, op);
                let took = watch.took();
                tracer.exit(span);
                closed.record(&op, took, &outcome);
                wire.log.push(op, &outcome);
            }
        }
        tracer.exit(phase);
        closed.calibrate();
        checkpoint(&wire.log, tracer);
        wire.log.retire();

        closed.calibrate();
        let phase = tracer.enter("phase.pipelined", 0);
        let latency = pipelined(
            &mut wire.client,
            &wire.pop,
            &mut wire.rng,
            &mut wire.log,
            window(cfg),
            each,
            tracer,
            &mut closed,
        );
        tracer.exit(phase);
        closed.calibrate();
        checkpoint(&wire.log, tracer);
        wire.log.retire();
        pipelined_ms.merge(latency);
    }
    let peak_rss_mb = probe::peak_rss_mb();
    let mut open_loop_notes = Vec::new();
    for &rate in &cfg.open_loop {
        let (latency, late) = open_loop(
            &mut wire.client,
            &wire.pop,
            &mut wire.rng,
            &mut wire.log,
            rate,
            Duration::from_secs_f64(cfg.seconds / 4.0),
        );
        checkpoint(&wire.log, tracer);
        wire.log.retire();
        open_loop_notes.push(format!(
            "open_loop {rate}/s: latency_ms {}; send late_ms {}",
            latency.describe(),
            late.describe()
        ));
    }
    open_loop_notes
        .into_iter()
        .for_each(|line| report.note(line));
    closed.take_setups(setups);
    report.set_end_to_end(&mut closed, peak_rss_mb);
    report.note(format!("pipelined_serve_ms: {}", pipelined_ms.describe()));
    report.attempted = wire.log.attempted();
    report.failed = wire.log.failed();

    let stats = wire.client.stats().expect("stats");
    let keywords = wire.pop.keywords;
    let wire_top = top_bids_of((0..keywords).map(|kw| {
        tracer
            .span("client.top_bids", 0, || wire.client.top_bids(kw, TOP_BIDS))
            .expect("top bids")
    }));
    let durability = wire.shut_down();

    // The directory as the run left it: size and restart time.
    let disk_bytes = probe::dir_bytes(&dir);
    let records = durability.wal_records();
    let recovering = Instant::now();
    let (recovered, recovery) = tracer
        .span("durable.recover", 0, || recover(&dir))
        .expect("data directory recovers")
        .expect("data directory holds a market");
    let recovery_s = recovering.elapsed().as_secs_f64();
    report.note(format!(
        "recovery_s: {recovery_s} replayed {} of {records} records; disk_bytes_per_op: {}",
        recovery.wal_records,
        disk_bytes as f64 / records as f64
    ));

    // The final books and the recovered market against the twin's.
    let span = tracer.enter("phase.check", 0);
    let twin_top = top_bids_of((0..keywords).map(|kw| {
        twin_market
            .top_bids(kw, TOP_BIDS)
            .expect("keyword in range")
    }));
    report.check(same_top_bids(&wire_top, &twin_top));
    report.check(same_state(
        &recovered
            .capture_state()
            .expect("recovered market captures"),
        &twin_market.capture_state().expect("twin captures"),
    ));
    tracer.exit(span);

    if tracer.on() {
        report.set_engine_layers(&engine_m, tracer);
        let campaigns = (size.advertisers * size.keywords) as f64;
        report
            .layers
            .insert("market.populate_us", twin_populate_s * 1e6 / campaigns);
        report.layers.insert(
            "net.rtt_overhead_us",
            (closed.wall_serve_ms.median() - twin_serve_ms.median()) * 1e3,
        );
        report.layers.insert(
            "net.wait_us",
            (pipelined_ms.median() - closed.wall_serve_ms.median()) * 1e3,
        );
        let mut rpc_us = Samples::default();
        for name in ["client.register_advertiser", "client.add_campaign"] {
            tracer
                .durations_ns(name)
                .into_iter()
                .for_each(|ns| rpc_us.push(ns as f64 / 1e3));
        }
        report.layers.insert("net.setup_rpc_us", rpc_us.median());
        report
            .layers
            .insert("net.overloaded", stats.overloaded as f64);
        let (codec_us, bytes) = probe::codec(&responses, tracer);
        report.layers.insert("net.codec_us", codec_us);
        report.layers.insert("net.bytes_per_serve", bytes);
        let journal_dir = cfg.data_dir.join("journal");
        let journalled = journalled.expect("at least one phase");
        report.set_durable_layers(&probe::durable(
            &journal_dir,
            Some(&recovered),
            &journalled,
            tracer,
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overloaded_and_error_replies_count_as_failed() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".runs")
            .join(format!("test-overload-{}", std::process::id()));
        let (server, _) = start_server(
            &dir,
            ServerConfig {
                admission_per_shard: 1,
                executor_delay: Some(Duration::from_millis(5)),
                ..ServerConfig::default()
            },
        );
        let mut client = Client::connect(server.addr()).expect("connects");
        let mut log = OpLog::default();

        // An error reply: the campaign does not exist.
        let op = Op::Update(CampaignId::from_parts(0, 99), 5);
        assert!(matches!(wire_exec(&mut client, op), Outcome::Failed));

        // Overloaded replies: eight requests in flight against a lane of one.
        let pop = Population {
            advertisers: 1,
            keywords: 10,
            values: vec![0; 10],
            per_click: true,
        };
        let mut rng = Rng::new(1);
        let mut tracer = Tracer::new(false);
        pipelined(
            &mut client,
            &pop,
            &mut rng,
            &mut log,
            8,
            Duration::ZERO,
            &mut tracer,
            &mut Measured::default(),
        );
        assert_eq!(log.attempted(), 8, "one whole window");
        assert!(
            log.failed() > 0 && log.failed() < 8,
            "failed {}",
            log.failed()
        );

        client.shutdown_server().expect("shuts down");
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
