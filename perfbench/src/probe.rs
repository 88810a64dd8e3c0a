//! Per-layer probes that run on a run's own messages and records after
//! its timed phases, and process-level readings.

use crate::ops::{Op, OpLog, FAILED};
use crate::stats::Samples;
use crate::trace::Tracer;
use ssa_core::marketplace::AuctionResponse;
use ssa_core::{MutationRecord, ShardedMarketplace, UserAttrs};
use ssa_durable::{recover, Durability, FsyncPolicy};
use ssa_net::frame::{encode_frame, FrameKind};
use ssa_net::{Request, Response, WireAuction};
use std::path::Path;
use std::time::Instant;

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Total size of the regular files directly in `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("data directory is readable")
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Encodes and decodes each auction's `Serve` request and `Served`
/// response, as the client and server do. Returns µs per request and
/// response pair, and framed bytes per pair.
pub fn codec(responses: &[AuctionResponse], tracer: &mut Tracer) -> (f64, f64) {
    let mut ns = 0u128;
    let mut bytes = 0usize;
    for (i, r) in responses.iter().enumerate() {
        let id = i as u64 + 1;
        let request = Request::Serve {
            keyword: r.keyword as u64,
            attrs: UserAttrs::new(),
        };
        let response = Response::Served(WireAuction::from(r));
        let start = Instant::now();
        let req_bytes = tracer.span("codec.encode_request", id, || request.encode());
        let req_back = tracer.span("codec.decode_request", id, || Request::decode(&req_bytes));
        let resp_bytes = tracer.span("codec.encode_response", id, || response.encode());
        let resp_back = tracer.span("codec.decode_response", id, || {
            Response::decode(&resp_bytes)
        });
        ns += start.elapsed().as_nanos();
        assert_eq!(req_back.as_ref(), Ok(&request), "request round-trips");
        assert_eq!(resp_back.as_ref(), Ok(&response), "response round-trips");
        bytes += encode_frame(FrameKind::Request, id, &req_bytes).len()
            + encode_frame(FrameKind::Response, id, &resp_bytes).len();
    }
    let n = responses.len().max(1) as f64;
    (ns as f64 / 1e3 / n, bytes as f64 / n)
}

/// The journal record of an operation, as the marketplace emits it.
pub fn mutation_record(op: &Op, log: &OpLog) -> MutationRecord {
    match *op {
        Op::Serve(keyword) => MutationRecord::Serve {
            keyword,
            attrs: UserAttrs::new(),
        },
        Op::Batch { start, len } => MutationRecord::ServeBatch {
            queries: log.batch_keywords[start..start + len]
                .iter()
                .map(|&kw| (kw, UserAttrs::new()))
                .collect(),
        },
        Op::Pause(id) => MutationRecord::PauseCampaign {
            keyword: id.keyword(),
            index: id.index(),
        },
        Op::Resume(id) => MutationRecord::ResumeCampaign {
            keyword: id.keyword(),
            index: id.index(),
        },
        Op::Update(id, bid_cents) => MutationRecord::UpdateBid {
            keyword: id.keyword(),
            index: id.index(),
            bid_cents,
        },
    }
}

/// Operations journalled by [`durable`]: those up to the one that brings
/// the auctions they run past this many, so replaying them stays short.
pub const JOURNALLED_AUCTIONS: u64 = 2000;

/// What [`durable`] measured, per the `durable.*` layer metrics, and the
/// snapshot's load time as a reference figure.
#[derive(Debug, Default)]
pub struct DurableFigures {
    pub append_us: f64,
    pub snapshot_ms: f64,
    pub snapshot_bytes: f64,
    pub snapshot_load_ms: f64,
    pub replay_records: f64,
    pub replay_us_per_record: f64,
}

/// Median time of three [`recover`]s of `dir`, in seconds, with the
/// records the last one replayed.
fn recover_s(dir: &Path, tracer: &mut Tracer) -> (f64, u64) {
    let mut times = Samples::default();
    let mut records = 0;
    for _ in 0..3 {
        let start = Instant::now();
        let (_, report) = tracer
            .span("durable.recover", 0, || recover(dir))
            .expect("probe log recovers")
            .expect("probe log holds a market");
        times.push(start.elapsed().as_secs_f64());
        records = report.wal_records;
    }
    (times.median(), records)
}

/// Exercises the durability layer on the run's own records in the fresh
/// directory `dir`, as a journalling server restarted on `market` would:
/// log its configuration and snapshot it, [`recover`] that alone, reopen
/// the directory, append the run's first operations through
/// [`Durability::journal`], then recover again. Replay cost per record is
/// the second recovery less the first. Without a market (programmed
/// campaigns cannot be journalled) only the appends are measured.
pub fn durable(
    dir: &Path,
    market: Option<&ShardedMarketplace>,
    log: &OpLog,
    tracer: &mut Tracer,
) -> DurableFigures {
    let mut out = DurableFigures::default();
    let mut snapshot_load_s = 0.0;
    if let Some(market) = market {
        let (recovered, durability) =
            Durability::open(dir, FsyncPolicy::Off, 0).expect("probe log directory opens");
        assert!(recovered.is_none(), "probe log directory starts empty");
        let state = market.capture_state().expect("a per-click market captures");
        durability
            .log_configure(&state.config)
            .expect("configure is journalled");
        let start = Instant::now();
        tracer
            .span("durable.snapshot", 0, || durability.snapshot_now(market))
            .expect("a per-click market snapshots");
        out.snapshot_ms = start.elapsed().as_secs_f64() * 1e3;
        out.snapshot_bytes = dir_bytes(dir) as f64;
        drop(durability);
        snapshot_load_s = recover_s(dir, tracer).0;
        out.snapshot_load_ms = snapshot_load_s * 1e3;
    }
    let (recovered, durability) =
        Durability::open(dir, FsyncPolicy::Off, 0).expect("probe log directory opens");
    assert_eq!(recovered.is_some(), market.is_some());
    let mut journal = durability.journal();
    let mut ns = 0u128;
    let (mut records, mut auctions) = (0u64, 0u64);
    for (i, op) in log.ops.iter().enumerate() {
        if auctions >= JOURNALLED_AUCTIONS {
            break;
        }
        if log.digests[i] == FAILED {
            continue;
        }
        let record = mutation_record(op, log);
        let start = Instant::now();
        tracer.span("durable.append", i as u64 + 1, || journal.record(&record));
        ns += start.elapsed().as_nanos();
        records += 1;
        auctions += op.auctions();
    }
    out.append_us = ns as f64 / 1e3 / records.max(1) as f64;
    drop(journal);
    drop(durability);
    if market.is_some() {
        let (recovery_s, replayed) = recover_s(dir, tracer);
        out.replay_records = replayed as f64;
        out.replay_us_per_record =
            (recovery_s - snapshot_load_s).max(0.0) * 1e6 / replayed.max(1) as f64;
    }
    out
}
