//! `static-1k`: the Section V population on a 1-shard
//! `ShardedMarketplace` in process — static per-click bids, RH + GSP.
//!
//! Bidder re-evaluation and GSP pricing do most of the work here and the
//! minidb, wire and WAL layers are untouched, so this is where pricing
//! and bid-epoch work shows and where a wire change shows nothing.

use crate::check::Reference;
use crate::clock::Stopwatch;
use crate::inproc::{measure, warm_up, Measured};
use crate::ops::{OpLog, Population, Rng};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{probe, RunConfig};
use ssa_bidlang::{Money, SlotId};
use ssa_core::marketplace::CampaignSpec;
use ssa_core::{PricingScheme, ShardedMarketplace, WdMethod};
use ssa_net::proto::MarketConfig;
use ssa_net::server::build_market;
use ssa_workload::{SectionVConfig, SectionVWorkload};
use std::time::Instant;

/// Sizes of a run; `tiny` ones are for smoke tests.
pub struct Size {
    pub advertisers: usize,
    pub slots: usize,
    pub keywords: usize,
    /// Times the run sets up; `setup_s` is their median.
    pub setups: usize,
    pub warmup: usize,
    pub batch: usize,
}

impl Size {
    pub fn of(cfg: &RunConfig) -> Self {
        if cfg.tiny {
            Size {
                advertisers: 20,
                slots: 5,
                keywords: 4,
                setups: 2,
                warmup: 20,
                batch: 10,
            }
        } else {
            Size {
                advertisers: 1000,
                slots: 15,
                keywords: 10,
                setups: 9,
                warmup: 500,
                batch: 100,
            }
        }
    }

    pub fn section_v(&self, seed: u64) -> SectionVConfig {
        SectionVConfig {
            num_advertisers: self.advertisers,
            num_slots: self.slots,
            num_keywords: self.keywords,
            seed,
        }
    }
}

/// The marketplace `ssa-server` builds for a workload: RH, GSP, seeded as
/// `ssa-load` seeds it. The workloads run one shard.
pub fn market_config(workload: &SectionVConfig, shards: usize) -> MarketConfig {
    ssa_net::market_config_for(
        workload,
        WdMethod::Reduced,
        PricingScheme::Gsp,
        shards,
        false,
    )
}

/// Per-slot click probabilities of every advertiser.
pub fn click_probs(workload: &SectionVWorkload) -> Vec<Vec<f64>> {
    (0..workload.config.num_advertisers)
        .map(|i| {
            (0..workload.config.num_slots)
                .map(|j| workload.clicks.p_click(i, SlotId::from_index0(j)))
                .collect()
        })
        .collect()
}

/// Registers the population in process: one advertiser each, one
/// per-click campaign per keyword at its initial bid and click value.
pub fn populate(market: &mut ShardedMarketplace, workload: &SectionVWorkload, tracer: &mut Tracer) {
    for (i, (bidder, probs)) in workload
        .bidders
        .iter()
        .zip(click_probs(workload))
        .enumerate()
    {
        let advertiser = tracer.span("market.register_advertiser", 0, || {
            market.register_advertiser(format!("advertiser-{i}"))
        });
        for (keyword, &(value, bid, _)) in bidder.keywords.iter().enumerate() {
            let spec = CampaignSpec::per_click(Money::from_cents(bid.max(0)))
                .click_value(Money::from_cents(value))
                .click_probs(probs.clone());
            tracer
                .span("market.add_campaign", 0, || {
                    market.add_campaign(advertiser, keyword, spec)
                })
                .expect("Section V campaign is valid");
        }
    }
}

/// Seed of the Section V population generator. It is fixed, so every run
/// serves the same market; `--seed` draws the operation stream. (Across
/// populations drawn from seeds 1 to 5, sql-roi throughput differed by
/// up to 20%, more than the run-to-run noise.)
pub const POPULATION_SEED: u64 = 42;

/// Each campaign's registered bid in cents, `[keyword][advertiser]`, as
/// [`populate`] registers it.
pub fn registered_bids(workload: &SectionVWorkload) -> Vec<Vec<i64>> {
    (0..workload.config.num_keywords)
        .map(|kw| {
            workload
                .bidders
                .iter()
                .map(|b| b.keywords[kw].1.max(0))
                .collect()
        })
        .collect()
}

/// Closed-loop responses per phase kept in full for the GSP checks (and
/// the codec probe); every other auction is checked by its expected
/// revenue alone.
const KEPT_RESPONSES: usize = 200;

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Report {
    let size = Size::of(cfg);
    let mut report = Report::default();
    let mut setups = Measured::default();
    let mut populate_s = Samples::default();
    let mut kept = None;
    setups.calibrate();
    for _ in 0..size.setups {
        drop(kept.take());
        let watch = Stopwatch::start();
        let span = tracer.enter("phase.setup", 0);
        let workload = SectionVWorkload::generate(size.section_v(POPULATION_SEED));
        let mut market = build_market(&market_config(&workload.config, cfg.shards))
            .expect("configuration is valid");
        let populating = Instant::now();
        populate(&mut market, &workload, tracer);
        populate_s.push(populating.elapsed().as_secs_f64());
        let pop = Population::of(&workload, true);
        let mut rng = Rng::new(cfg.seed);
        let mut log = OpLog::keeping(KEPT_RESPONSES);
        warm_up(&mut market, &pop, &mut rng, &mut log, size.warmup, tracer);
        tracer.exit(span);
        setups.record_setup(watch.took());
        setups.calibrate();
        kept = Some((market, workload, pop, rng, log));
    }
    let (mut market, workload, pop, mut rng, mut log) = kept.expect("at least one setup");

    // After each phase, outside its timing: every auction of the run
    // against the independent reference, and GSP properties of the kept
    // responses.
    let mut reference = Reference::new(
        registered_bids(&workload),
        click_probs(&workload),
        size.slots,
    );
    let mut responses = Vec::new();
    let mut journalled = None;
    let mut m = measure(
        &mut market,
        &pop,
        &mut rng,
        &mut log,
        size.batch,
        cfg.seconds,
        tracer,
        &mut |log, tracer| {
            let span = tracer.enter("phase.check", 0);
            report.check(reference.check(log));
            tracer.exit(span);
            if tracer.on() {
                responses.extend(log.responses.iter().map(|(_, r)| r.clone()));
                journalled.get_or_insert_with(|| log.prefix(probe::JOURNALLED_AUCTIONS));
            }
        },
    );
    m.take_setups(setups);
    report.set_end_to_end(&mut m, probe::peak_rss_mb());
    report.attempted = log.attempted();
    report.failed = log.failed();
    if reference.auctions != market.now() {
        report.check(Err(format!(
            "{} auctions checked but the market ran {}",
            reference.auctions,
            market.now()
        )));
    }
    report.note(format!(
        "checked: {} auctions against the independent optimum, {} responses for GSP properties",
        reference.auctions, reference.responses
    ));

    if tracer.on() {
        report.set_engine_layers(&m, tracer);
        let campaigns = (size.advertisers * size.keywords) as f64;
        report
            .layers
            .insert("market.populate_us", populate_s.median() * 1e6 / campaigns);
        let (codec_us, bytes) = probe::codec(&responses, tracer);
        report.layers.insert("net.codec_us", codec_us);
        report.layers.insert("net.bytes_per_serve", bytes);
        let journal_dir = cfg.data_dir.join("journal");
        let journalled = journalled.expect("at least one phase");
        report.set_durable_layers(&probe::durable(
            &journal_dir,
            Some(&market),
            &journalled,
            tracer,
        ));
    }
    report
}
