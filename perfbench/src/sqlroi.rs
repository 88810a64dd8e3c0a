//! `sql-roi`: the programmed Section II-B population on a single-threaded
//! `Marketplace` — every campaign a Figure 5 ROI program in SQL on
//! prepared statements, RH + GSP.
//!
//! Program evaluation and SQL settlement triggers take nearly all the
//! time and bids move every auction, so this is where minidb changes
//! show and where the per-click pricing path barely matters.

use crate::check::{same_bids, same_digests};
use crate::clock::Stopwatch;
use crate::inproc::{measure, replay, warm_up, Measured};
use crate::ops::{OpLog, Outcome, Population, Rng};
use crate::report::Report;
use crate::static1k::POPULATION_SEED;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{probe, RunConfig};
use ssa_core::{PhaseStats, WdMethod};
use ssa_workload::{
    programmed_market, ProgrammedMarket, SectionVConfig, SectionVWorkload, Strategy,
};
use std::time::Instant;

struct Size {
    advertisers: usize,
    slots: usize,
    keywords: usize,
    setups: usize,
    warmup: usize,
    batch: usize,
}

impl Size {
    fn of(cfg: &RunConfig) -> Self {
        if cfg.tiny {
            Size {
                advertisers: 8,
                slots: 4,
                keywords: 3,
                setups: 2,
                warmup: 10,
                batch: 5,
            }
        } else {
            Size {
                advertisers: 100,
                slots: 15,
                keywords: 10,
                setups: 7,
                warmup: 100,
                batch: 50,
            }
        }
    }
}

fn final_bids(market: &ProgrammedMarket, size: &Size) -> Vec<i64> {
    (0..size.advertisers)
        .flat_map(|a| (0..size.keywords).map(move |k| (a, k)))
        .map(|(a, k)| market.bid_of(a, k))
        .collect()
}

/// Program evaluation plus settlement: the time SQL spends.
fn program_ns(p: &PhaseStats) -> u64 {
    p.program_eval_ns + p.settlement_ns
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Report {
    let size = Size::of(cfg);
    let mut report = Report::default();
    let mut setups = Measured::default();
    let mut prepare_s = Samples::default();
    let mut kept = None;
    setups.calibrate();
    for _ in 0..size.setups {
        drop(kept.take());
        let watch = Stopwatch::start();
        let span = tracer.enter("phase.setup", 0);
        let workload = SectionVWorkload::generate(SectionVConfig {
            num_advertisers: size.advertisers,
            num_slots: size.slots,
            num_keywords: size.keywords,
            seed: POPULATION_SEED,
        });
        let preparing = Instant::now();
        let mut sql = tracer.span("workload.programmed_market", 0, || {
            programmed_market(&workload, WdMethod::Reduced, Strategy::Sql)
        });
        prepare_s.push(preparing.elapsed().as_secs_f64());
        let pop = Population::of(&workload, false);
        let mut rng = Rng::new(cfg.seed);
        let mut log = OpLog::default();
        warm_up(
            &mut sql.market,
            &pop,
            &mut rng,
            &mut log,
            size.warmup,
            tracer,
        );
        tracer.exit(span);
        setups.record_setup(watch.took());
        setups.calibrate();
        kept = Some((sql, workload, pop, rng, log));
    }
    let (mut sql, workload, pop, mut rng, mut log) = kept.expect("at least one setup");

    // After each phase, outside its timing, the native-Rust twin of the
    // same Figure 5 programs replays its operations; every outcome must be
    // bit-identical.
    let mut native = programmed_market(&workload, WdMethod::Reduced, Strategy::Native);
    let mut native_phases = PhaseStats::default();
    let mut responses = Vec::new();
    let mut journalled = None;
    let mut warm_up_batch = true;
    let mut m = measure(
        &mut sql.market,
        &pop,
        &mut rng,
        &mut log,
        size.batch,
        cfg.seconds,
        tracer,
        &mut |log, tracer| {
            let span = tracer.enter("phase.check", 0);
            let traced = tracer.on();
            let twin = replay(&mut native.market, log, |i, outcome, _| match outcome {
                // The first operation is the warm-up batch, outside the
                // measured phases.
                Outcome::Batch(r) if !(warm_up_batch && i == 0) => {
                    native_phases.absorb(&r.total.phases)
                }
                Outcome::Auction(r) if traced && responses.len() < 5000 => {
                    responses.push(r.clone())
                }
                _ => {}
            });
            warm_up_batch = false;
            report.check(same_digests(&log.digests, &twin));
            tracer.exit(span);
            if traced {
                journalled.get_or_insert_with(|| log.prefix(probe::JOURNALLED_AUCTIONS));
            }
        },
    );
    m.take_setups(setups);
    report.set_end_to_end(&mut m, probe::peak_rss_mb());
    report.attempted = log.attempted();
    report.failed = log.failed();
    report.check(same_bids(
        &final_bids(&sql, &size),
        &final_bids(&native, &size),
    ));

    if tracer.on() {
        report.set_engine_layers(&m, tracer);
        let campaigns = (size.advertisers * size.keywords) as f64;
        report
            .layers
            .insert("market.populate_us", prepare_s.median() * 1e6 / campaigns);
        report
            .layers
            .insert("minidb.prepare_ms", prepare_s.median() * 1e3);
        let rows: u64 = sql
            .handles
            .iter()
            .filter_map(|h| h.planner_stats())
            .map(|s| s.rows_scanned)
            .sum();
        report
            .layers
            .insert("minidb.rows_scanned", rows as f64 / sql.market.now() as f64);
        report.layers.insert(
            "minidb.sql_over_native",
            program_ns(&m.phases) as f64 / program_ns(&native_phases).max(1) as f64,
        );
        let (codec_us, bytes) = probe::codec(&responses, tracer);
        report.layers.insert("net.codec_us", codec_us);
        report.layers.insert("net.bytes_per_serve", bytes);
        let journal_dir = cfg.data_dir.join("journal");
        let journalled = journalled.expect("at least one phase");
        report.set_durable_layers(&probe::durable(&journal_dir, None, &journalled, tracer));
    }
    report
}
