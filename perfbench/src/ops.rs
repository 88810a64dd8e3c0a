//! The operations a run sends, generated from its seed, and their
//! outcome digests.
//!
//! Every workload records the operations it attempted in an [`OpLog`],
//! with one digest of each outcome. Twins replay the log through
//! [`exec`] and compare digests, and a reference recomputes each
//! auction's optimum from the logged writes, so a check never depends on
//! the path being measured.

use ssa_bidlang::Money;
use ssa_core::marketplace::{
    AuctionResponse, CampaignId, MarketBatchReport, MarketError, Marketplace, QueryRequest,
};
use ssa_core::{BatchReport, ShardedMarketplace};
use std::hash::{Hash, Hasher};

/// SplitMix64: the benchmark's own seeded stream of operation choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The control and data plane calls `Marketplace` and
/// `ShardedMarketplace` share by name, so one loop serves both.
pub trait Market {
    fn serve(&mut self, request: QueryRequest) -> Result<AuctionResponse, MarketError>;
    fn serve_batch(&mut self, requests: &[QueryRequest]) -> Result<MarketBatchReport, MarketError>;
    fn update_bid(&mut self, id: CampaignId, bid: Money) -> Result<(), MarketError>;
    fn pause_campaign(&mut self, id: CampaignId) -> Result<(), MarketError>;
    fn resume_campaign(&mut self, id: CampaignId) -> Result<(), MarketError>;
}

macro_rules! impl_market {
    ($t:ty) => {
        impl Market for $t {
            fn serve(&mut self, request: QueryRequest) -> Result<AuctionResponse, MarketError> {
                <$t>::serve(self, request)
            }
            fn serve_batch(
                &mut self,
                requests: &[QueryRequest],
            ) -> Result<MarketBatchReport, MarketError> {
                <$t>::serve_batch(self, requests)
            }
            fn update_bid(&mut self, id: CampaignId, bid: Money) -> Result<(), MarketError> {
                <$t>::update_bid(self, id, bid)
            }
            fn pause_campaign(&mut self, id: CampaignId) -> Result<(), MarketError> {
                <$t>::pause_campaign(self, id)
            }
            fn resume_campaign(&mut self, id: CampaignId) -> Result<(), MarketError> {
                <$t>::resume_campaign(self, id)
            }
        }
    };
}
impl_market!(Marketplace);
impl_market!(ShardedMarketplace);

/// One operation of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Serve(usize),
    /// A `serve_batch` over `OpLog::batch_keywords[start..start + len]`.
    Batch {
        start: usize,
        len: usize,
    },
    Pause(CampaignId),
    Resume(CampaignId),
    Update(CampaignId, i64),
}

impl Op {
    /// Auctions the operation runs.
    pub fn auctions(&self) -> u64 {
        match self {
            Op::Serve(_) => 1,
            Op::Batch { len, .. } => *len as u64,
            _ => 0,
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Pause(_) | Op::Resume(_) | Op::Update(..))
    }
}

/// Digest of an operation the program refused or failed; twins skip it.
pub const FAILED: u64 = u64::MAX;

/// The operations of a run since its last checkpoint, in order, with
/// their outcome digests and expected revenues, and counts over the
/// whole run. A workload checks the log after each timed phase and then
/// [`retire`](OpLog::retire)s it, so the benchmark's own records stay the
/// size of one phase however fast the host runs.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    pub ops: Vec<Op>,
    pub digests: Vec<u64>,
    /// Expected revenue of each auction operation (a batch's total), NaN
    /// for writes and failed operations.
    pub revenues: Vec<f64>,
    pub batch_keywords: Vec<usize>,
    /// Full responses of the first [`keep_responses`](OpLog::keep_responses)
    /// single serves since the checkpoint, with their operation index.
    pub responses: Vec<(usize, AuctionResponse)>,
    pub keep_responses: usize,
    retired_ops: u64,
    retired_failed: u64,
}

impl OpLog {
    /// A log that keeps the full responses of the first `n` single serves
    /// of each phase.
    pub fn keeping(n: usize) -> Self {
        OpLog {
            keep_responses: n,
            ..OpLog::default()
        }
    }

    pub fn push(&mut self, op: Op, outcome: &Outcome) {
        self.ops.push(op);
        self.digests.push(FAILED);
        self.revenues.push(f64::NAN);
        self.set(self.ops.len() - 1, outcome);
    }

    /// Records the outcome of operation `index` (pipelined replies come
    /// back after their requests were logged).
    pub fn set(&mut self, index: usize, outcome: &Outcome) {
        self.digests[index] = outcome.digest();
        self.revenues[index] = outcome.revenue();
        if let Outcome::Auction(r) = outcome {
            if self.responses.len() < self.keep_responses {
                self.responses.push((index, r.clone()));
            }
        }
    }

    pub fn batch(&self, start: usize, len: usize) -> Vec<QueryRequest> {
        self.batch_keywords[start..start + len]
            .iter()
            .map(|&kw| QueryRequest::new(kw))
            .collect()
    }

    /// Operations attempted over the whole run.
    pub fn attempted(&self) -> u64 {
        self.retired_ops + self.ops.len() as u64
    }

    /// Operations failed over the whole run.
    pub fn failed(&self) -> u64 {
        self.retired_failed + self.digests.iter().filter(|&&d| d == FAILED).count() as u64
    }

    /// Forgets the operations since the last checkpoint, keeping the
    /// run's counts (and the allocations, for the next phase).
    pub fn retire(&mut self) {
        self.retired_failed = self.failed();
        self.retired_ops = self.attempted();
        self.ops.clear();
        self.digests.clear();
        self.revenues.clear();
        self.batch_keywords.clear();
        self.responses.clear();
    }

    /// A log of the leading operations, up to the one that brings the
    /// auctions they run to `auctions` or more.
    pub fn prefix(&self, auctions: u64) -> OpLog {
        let (mut n, mut seen) = (0, 0);
        while n < self.ops.len() && seen < auctions {
            seen += self.ops[n].auctions();
            n += 1;
        }
        OpLog {
            ops: self.ops[..n].to_vec(),
            digests: self.digests[..n].to_vec(),
            revenues: self.revenues[..n].to_vec(),
            batch_keywords: self.batch_keywords.clone(),
            ..OpLog::default()
        }
    }
}

/// What the seeded operation choices draw from: the population's shape
/// and each campaign's click value (the upper end of a bid update).
#[derive(Debug, Clone)]
pub struct Population {
    pub advertisers: usize,
    pub keywords: usize,
    /// `values[advertiser * keywords + keyword]`, in cents.
    pub values: Vec<i64>,
    /// Per-click campaigns take bid updates; programmed ones do not.
    pub per_click: bool,
}

impl Population {
    pub fn of(workload: &ssa_workload::SectionVWorkload, per_click: bool) -> Self {
        Population {
            advertisers: workload.config.num_advertisers,
            keywords: workload.config.num_keywords,
            values: workload
                .bidders
                .iter()
                .flat_map(|b| b.keywords.iter().map(|&(value, _, _)| value))
                .collect(),
            per_click,
        }
    }

    /// A uniformly chosen campaign. Every advertiser opens one campaign
    /// per keyword in registration order, so its index on a keyword is
    /// the advertiser's index.
    pub fn campaign(&self, rng: &mut Rng) -> CampaignId {
        CampaignId::from_parts(rng.below(self.keywords), rng.below(self.advertisers))
    }

    pub fn update(&self, rng: &mut Rng) -> Op {
        let id = self.campaign(rng);
        let value = self.values[id.index() * self.keywords + id.keyword()].max(0);
        Op::Update(id, rng.below(value as usize + 1) as i64)
    }

    /// One closed-loop round: pause a campaign, five serves, resume it,
    /// five serves, and (per-click populations only) one bid update.
    pub fn closed_round(&self, rng: &mut Rng) -> Vec<Op> {
        let paused = self.campaign(rng);
        let mut ops = vec![Op::Pause(paused)];
        ops.extend((0..5).map(|_| Op::Serve(rng.below(self.keywords))));
        ops.push(Op::Resume(paused));
        ops.extend((0..5).map(|_| Op::Serve(rng.below(self.keywords))));
        if self.per_click {
            ops.push(self.update(rng));
        }
        ops
    }
}

fn hash_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in values {
        v.hash(&mut h);
    }
    // Keep clear of the FAILED sentinel.
    h.finish() >> 1
}

/// Digest of every field of one auction's outcome.
pub fn digest_response(r: &AuctionResponse) -> u64 {
    let mut fields = vec![
        r.keyword as u64,
        r.time,
        r.expected_revenue.to_bits(),
        r.realized_revenue.cents() as u64,
    ];
    for p in &r.placements {
        fields.extend([
            p.slot.index0() as u64,
            p.campaign.keyword() as u64,
            p.campaign.index() as u64,
            p.advertiser.index() as u64,
            p.clicked as u64,
            p.purchased as u64,
            p.charge.cents() as u64,
        ]);
    }
    for (id, charge) in &r.charges {
        fields.extend([
            id.keyword() as u64,
            id.index() as u64,
            charge.cents() as u64,
        ]);
    }
    hash_u64s(fields)
}

/// Digest of a batch's outcome fields (not its timings).
pub fn digest_report(r: &BatchReport) -> u64 {
    hash_u64s([
        r.auctions,
        r.expected_revenue.to_bits(),
        r.filled_slots,
        r.clicks,
        r.purchases,
        r.realized_revenue.cents() as u64,
    ])
}

/// Digest of an acknowledged write.
pub const ACK: u64 = 0;

/// What one operation returned, with the engine's phase report for
/// batches.
pub enum Outcome {
    Auction(AuctionResponse),
    Batch(MarketBatchReport),
    Ack,
    Failed,
}

impl Outcome {
    pub fn digest(&self) -> u64 {
        match self {
            Outcome::Auction(r) => digest_response(r),
            Outcome::Batch(r) => digest_report(&r.total),
            Outcome::Ack => ACK,
            Outcome::Failed => FAILED,
        }
    }

    /// Expected revenue of an auction or a batch; NaN otherwise.
    pub fn revenue(&self) -> f64 {
        match self {
            Outcome::Auction(r) => r.expected_revenue,
            Outcome::Batch(r) => r.total.expected_revenue,
            Outcome::Ack | Outcome::Failed => f64::NAN,
        }
    }
}

/// Runs one operation on an in-process market; `batch` holds the
/// requests of an [`Op::Batch`] (built by the caller, outside any timing).
pub fn exec<M: Market>(market: &mut M, op: Op, batch: &[QueryRequest]) -> Outcome {
    let ack = |r: Result<(), MarketError>| r.map_or(Outcome::Failed, |()| Outcome::Ack);
    match op {
        Op::Serve(kw) => market
            .serve(QueryRequest::new(kw))
            .map_or(Outcome::Failed, Outcome::Auction),
        Op::Batch { .. } => market
            .serve_batch(batch)
            .map_or(Outcome::Failed, Outcome::Batch),
        Op::Pause(id) => ack(market.pause_campaign(id)),
        Op::Resume(id) => ack(market.resume_campaign(id)),
        Op::Update(id, cents) => ack(market.update_bid(id, Money::from_cents(cents))),
    }
}

/// Span name of an in-process operation.
pub fn span_name(op: &Op) -> &'static str {
    match op {
        Op::Serve(_) => "market.serve",
        Op::Batch { .. } => "market.serve_batch",
        Op::Pause(_) => "market.pause",
        Op::Resume(_) => "market.resume",
        Op::Update(..) => "market.update_bid",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_per_seed() {
        let pop = Population {
            advertisers: 7,
            keywords: 3,
            values: (0..21).collect(),
            per_click: true,
        };
        let a = pop.closed_round(&mut Rng::new(5));
        assert_eq!(a, pop.closed_round(&mut Rng::new(5)));
        assert_eq!(a.len(), 13);
        assert_eq!(a.iter().filter(|o| o.is_write()).count(), 3);
        let programmed = Population {
            per_click: false,
            ..pop
        };
        assert_eq!(programmed.closed_round(&mut Rng::new(5)).len(), 12);
    }
}
