//! Output checks. Each compares a run's outputs with a computation that
//! shares nothing with the path being measured; a mismatch fails the run.

use crate::ops::{Op, OpLog, FAILED};
use ssa_core::marketplace::{AuctionResponse, CampaignId};
use ssa_core::{MarketState, WdMethod};
use ssa_matching::{max_weight_assignment, RevenueMatrix, WdSolver};
use std::collections::HashSet;

/// What a per-click auction on one keyword was run over: each campaign's
/// effective bid in cents (`None` while paused) and its advertiser's
/// per-slot click probabilities, both indexed by campaign index.
pub struct KeywordBook<'a> {
    pub bids: &'a [Option<i64>],
    pub click_probs: &'a [Vec<f64>],
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The optimum expected revenue of a per-click auction, found by full
/// Hungarian winner determination on the unreduced bipartite graph and,
/// when `with_lp`, confirmed by the network-simplex LP.
pub fn optimum(book: &KeywordBook, slots: usize, with_lp: bool) -> Result<f64, String> {
    let matrix = RevenueMatrix::from_fn(book.bids.len(), slots, |i, j| match book.bids[i] {
        Some(cents) => cents as f64 * book.click_probs[i][j],
        None => ssa_matching::EXCLUDED,
    });
    let hungarian = max_weight_assignment(&matrix).total_weight;
    if with_lp {
        let lp = WdMethod::Lp.new_solver().solve_alloc(&matrix).total_weight;
        if !close(lp, hungarian) {
            return Err(format!("Hungarian optimum {hungarian} but LP optimum {lp}"));
        }
    }
    Ok(hungarian)
}

/// Checks one GSP auction against an independently computed optimum:
/// expected revenue equals it, at most one slot per campaign, a charge
/// only where a click occurred, no charge above the bid, and charges
/// summing to the realised revenue.
pub fn check_gsp_auction(
    r: &AuctionResponse,
    book: &KeywordBook,
    optimum: f64,
) -> Result<(), String> {
    let at = format!("auction t={} kw={}", r.time, r.keyword);
    if !close(r.expected_revenue, optimum) {
        return Err(format!(
            "{at}: expected revenue {} but the independent optimum is {optimum}",
            r.expected_revenue
        ));
    }
    let mut seen = HashSet::new();
    for p in &r.placements {
        if !seen.insert(p.campaign) {
            return Err(format!("{at}: campaign {:?} holds two slots", p.campaign));
        }
        if p.charge.is_positive() && !p.clicked {
            return Err(format!("{at}: {:?} charged without a click", p.campaign));
        }
    }
    let mut total = 0i64;
    for (id, charge) in &r.charges {
        let placed = r.placements.iter().find(|p| p.campaign == *id);
        if charge.is_positive() && !placed.is_some_and(|p| p.clicked) {
            return Err(format!("{at}: {id:?} charged without a click"));
        }
        let bid = book.bids.get(id.index()).copied().flatten().unwrap_or(0);
        if charge.cents() > bid {
            return Err(format!(
                "{at}: {id:?} charged {} above its bid {bid}",
                charge.cents()
            ));
        }
        total += charge.cents();
    }
    if total != r.realized_revenue.cents() {
        return Err(format!(
            "{at}: charges sum to {total} but realised revenue is {}",
            r.realized_revenue.cents()
        ));
    }
    Ok(())
}

/// Every how many optima a [`Reference`] computes one is also confirmed
/// by the network-simplex LP.
const LP_EVERY: u64 = 20;

/// An independent reference for a per-click market. Each keyword's bid
/// book is rebuilt from the population's registered bids and the logged
/// writes, never read from the market under test, and its optimum comes
/// from full Hungarian winner determination ([`optimum`]), cached until a
/// write touches the keyword.
pub struct Reference {
    slots: usize,
    click_probs: Vec<Vec<f64>>,
    /// `bids[keyword][campaign index]`, in cents.
    bids: Vec<Vec<i64>>,
    /// The same, `None` while paused.
    books: Vec<Vec<Option<i64>>>,
    optima: Vec<Option<f64>>,
    solved: u64,
    /// Auctions checked so far.
    pub auctions: u64,
    /// Responses checked for the GSP properties so far.
    pub responses: u64,
}

impl Reference {
    /// `bids[keyword][campaign index]` are the registered bids in cents;
    /// `click_probs` are indexed by campaign index.
    pub fn new(bids: Vec<Vec<i64>>, click_probs: Vec<Vec<f64>>, slots: usize) -> Self {
        Reference {
            slots,
            click_probs,
            books: bids
                .iter()
                .map(|b| b.iter().map(|&c| Some(c)).collect())
                .collect(),
            optima: vec![None; bids.len()],
            bids,
            solved: 0,
            auctions: 0,
            responses: 0,
        }
    }

    fn book(&self, keyword: usize) -> KeywordBook<'_> {
        KeywordBook {
            bids: &self.books[keyword],
            click_probs: &self.click_probs,
        }
    }

    fn optimum(&mut self, keyword: usize) -> Result<f64, String> {
        if let Some(best) = self.optima[keyword] {
            return Ok(best);
        }
        self.solved += 1;
        let best = optimum(&self.book(keyword), self.slots, self.solved % LP_EVERY == 1)?;
        self.optima[keyword] = Some(best);
        Ok(best)
    }

    fn write(&mut self, id: CampaignId, book: impl FnOnce(i64) -> Option<i64>) {
        let (kw, i) = (id.keyword(), id.index());
        self.books[kw][i] = book(self.bids[kw][i]);
        self.optima[kw] = None;
    }

    /// Checks the operations of `log` in order, applying its writes: each
    /// auction's expected revenue equals its keyword's optimum, each
    /// batch's the sum of its auctions' optima, and each kept response
    /// passes [`check_gsp_auction`]. Failed operations were never applied.
    pub fn check(&mut self, log: &OpLog) -> Result<(), String> {
        let mut kept = log.responses.iter().peekable();
        for (i, op) in log.ops.iter().enumerate() {
            if log.digests[i] == FAILED {
                continue;
            }
            match *op {
                Op::Update(id, cents) => {
                    self.bids[id.keyword()][id.index()] = cents;
                    let paused = self.books[id.keyword()][id.index()].is_none();
                    self.write(id, |bid| (!paused).then_some(bid));
                }
                Op::Pause(id) => self.write(id, |_| None),
                Op::Resume(id) => self.write(id, Some),
                Op::Serve(kw) => {
                    let best = self.optimum(kw)?;
                    match kept.next_if(|(j, _)| *j == i) {
                        Some((_, r)) => {
                            check_gsp_auction(r, &self.book(kw), best)?;
                            self.responses += 1;
                        }
                        None if !close(log.revenues[i], best) => {
                            return Err(format!(
                                "auction kw={kw}: expected revenue {} but the independent optimum is {best}",
                                log.revenues[i]
                            ))
                        }
                        None => {}
                    }
                    self.auctions += 1;
                }
                Op::Batch { start, len } => {
                    let mut sum = 0.0;
                    for &kw in &log.batch_keywords[start..start + len] {
                        sum += self.optimum(kw)?;
                    }
                    if !close(log.revenues[i], sum) {
                        return Err(format!(
                            "batch of {len}: expected revenue {} but the independent optima sum to {sum}",
                            log.revenues[i]
                        ));
                    }
                    self.auctions += len as u64;
                }
            }
        }
        Ok(())
    }
}

/// Compares a run's outcome digests with a twin's replay of the same
/// operations.
pub fn same_digests(run: &[u64], twin: &[u64]) -> Result<(), String> {
    if run.len() != twin.len() {
        return Err(format!(
            "{} outcomes but the twin produced {}",
            run.len(),
            twin.len()
        ));
    }
    match run.iter().zip(twin).position(|(a, b)| a != b) {
        Some(i) => Err(format!("operation {i}: outcome differs from the twin's")),
        None => Ok(()),
    }
}

/// Compares final per-program bids (`[advertiser * keywords + keyword]`).
pub fn same_bids(run: &[i64], twin: &[i64]) -> Result<(), String> {
    if run.len() != twin.len() {
        return Err(format!(
            "{} bids but the twin has {}",
            run.len(),
            twin.len()
        ));
    }
    match run.iter().zip(twin).position(|(a, b)| a != b) {
        Some(i) => Err(format!(
            "program {i}: final bid {} but the twin's is {}",
            run[i], twin[i]
        )),
        None => Ok(()),
    }
}

/// Compares final top-bids lists, one per keyword.
pub fn same_top_bids(
    run: &[Vec<(CampaignId, i64)>],
    twin: &[Vec<(CampaignId, i64)>],
) -> Result<(), String> {
    match run.iter().zip(twin).position(|(a, b)| a != b) {
        Some(kw) => Err(format!("keyword {kw}: top bids differ from the twin's")),
        None if run.len() != twin.len() => Err("top-bids lists differ in length".into()),
        None => Ok(()),
    }
}

/// Compares a recovered market's captured state with the twin's.
pub fn same_state(recovered: &MarketState, twin: &MarketState) -> Result<(), String> {
    if recovered.clock != twin.clock {
        return Err(format!(
            "recovered clock {} but the twin's is {}",
            recovered.clock, twin.clock
        ));
    }
    if recovered != twin {
        return Err("recovered state differs from the twin's".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_bidlang::Money;
    use ssa_core::marketplace::{CampaignSpec, QueryRequest};
    use ssa_core::{Marketplace, PricingScheme};

    const PROBS: [f64; 2] = [0.9, 0.4];

    /// Serves a few GSP auctions on a three-campaign keyword until one
    /// has a click, returning it with the keyword's book.
    const BIDS: [i64; 3] = [30, 20, 10];

    /// A two-slot GSP market of three per-click campaigns on one keyword.
    fn market() -> Marketplace {
        let mut market = Marketplace::builder()
            .slots(2)
            .keywords(1)
            .pricing(PricingScheme::Gsp)
            .seed(3)
            .build()
            .expect("valid");
        for (i, &bid) in BIDS.iter().enumerate() {
            let a = market.register_advertiser(format!("a{i}"));
            market
                .add_campaign(
                    a,
                    0,
                    CampaignSpec::per_click(Money::from_cents(bid)).click_probs(PROBS.to_vec()),
                )
                .expect("valid");
        }
        market
    }

    fn clicked_auction() -> (AuctionResponse, Vec<Option<i64>>, Vec<Vec<f64>>) {
        let mut market = market();
        let bids = BIDS;
        let book: Vec<Option<i64>> = bids.iter().map(|&b| Some(b)).collect();
        let probs = vec![PROBS.to_vec(); 3];
        loop {
            let r = market.serve(QueryRequest::new(0)).expect("serves");
            if r.realized_revenue.is_positive() {
                return (r, book, probs);
            }
        }
    }

    fn check(r: &AuctionResponse, bids: &[Option<i64>], probs: &[Vec<f64>]) -> Result<(), String> {
        let book = KeywordBook {
            bids,
            click_probs: probs,
        };
        check_gsp_auction(r, &book, optimum(&book, 2, true)?)
    }

    #[test]
    fn gsp_check_accepts_the_engine_and_catches_perturbations() {
        let (r, bids, probs) = clicked_auction();
        assert_eq!(check(&r, &bids, &probs), Ok(()));
        assert!(
            (optimum(
                &KeywordBook {
                    bids: &bids,
                    click_probs: &probs
                },
                2,
                true
            )
            .unwrap()
                - (30.0 * 0.9 + 20.0 * 0.4))
                .abs()
                < 1e-12
        );

        let mut bad = r.clone();
        bad.expected_revenue += 0.01;
        assert!(check(&bad, &bids, &probs)
            .unwrap_err()
            .contains("independent optimum"));

        let mut bad = r.clone();
        bad.placements.push(bad.placements[0]);
        assert!(check(&bad, &bids, &probs)
            .unwrap_err()
            .contains("two slots"));

        let mut bad = r.clone();
        let (id, _) = bad.charges[0];
        bad.charges[0].1 = Money::from_cents(bids[id.index()].unwrap() + 1);
        bad.realized_revenue = bad
            .charges
            .iter()
            .map(|c| c.1)
            .fold(Money::ZERO, |a, b| a + b);
        assert!(check(&bad, &bids, &probs)
            .unwrap_err()
            .contains("above its bid"));

        let mut bad = r.clone();
        bad.realized_revenue += Money::from_cents(1);
        assert!(check(&bad, &bids, &probs).unwrap_err().contains("sum to"));

        let mut bad = r.clone();
        for p in &mut bad.placements {
            p.clicked = false;
        }
        assert!(check(&bad, &bids, &probs)
            .unwrap_err()
            .contains("without a click"));

        // A paused campaign leaves the graph: the optimum drops.
        let mut paused = bids.clone();
        paused[0] = None;
        assert!(check(&r, &paused, &probs)
            .unwrap_err()
            .contains("independent optimum"));
    }

    #[test]
    fn reference_checks_every_logged_auction_and_catches_perturbations() {
        use crate::ops::exec;
        let mut market = market();
        let third = CampaignId::from_parts(0, 2);
        let mut log = OpLog::keeping(1);
        log.batch_keywords = vec![0; 4];
        for op in [
            Op::Serve(0),
            Op::Update(third, 50),
            Op::Batch { start: 0, len: 4 },
            Op::Pause(third),
            Op::Serve(0),
            Op::Resume(third),
            Op::Serve(0),
        ] {
            let batch = match op {
                Op::Batch { start, len } => log.batch(start, len),
                _ => Vec::new(),
            };
            let outcome = exec(&mut market, op, &batch);
            log.push(op, &outcome);
        }
        let reference = || Reference::new(vec![BIDS.to_vec()], vec![PROBS.to_vec(); 3], 2);
        let mut checked = reference();
        assert_eq!(checked.check(&log), Ok(()));
        assert_eq!((checked.auctions, checked.responses), (7, 1));

        for (i, expect) in [(2, "optima sum"), (4, "independent optimum")] {
            let mut bad = log.clone();
            bad.revenues[i] += 0.01;
            assert!(reference().check(&bad).unwrap_err().contains(expect));
        }
        // The kept response of operation 0 is checked in full.
        let mut bad = log.clone();
        bad.responses[0].1.expected_revenue += 0.01;
        assert!(reference()
            .check(&bad)
            .unwrap_err()
            .contains("independent optimum"));
        // A bid the market applied differently from the logged write.
        let mut bad = log.clone();
        bad.ops[1] = Op::Update(third, 11);
        assert!(reference().check(&bad).unwrap_err().contains("optima sum"));
        // A pause the market skipped.
        let mut bad = log.clone();
        bad.ops[5] = Op::Pause(third);
        assert!(reference()
            .check(&bad)
            .unwrap_err()
            .contains("independent optimum"));
    }

    #[test]
    fn twin_comparisons_catch_one_changed_value() {
        let run = vec![1, 2, 3];
        assert_eq!(same_digests(&run, &run), Ok(()));
        assert!(same_digests(&run, &[1, 9, 3])
            .unwrap_err()
            .contains("operation 1"));
        assert!(same_digests(&run, &[1, 2]).is_err());
        assert_eq!(same_bids(&[4, 5], &[4, 5]), Ok(()));
        assert!(same_bids(&[4, 5], &[4, 6])
            .unwrap_err()
            .contains("program 1"));
        let id = CampaignId::from_parts(0, 1);
        let lists = vec![vec![(id, 7)], vec![]];
        assert_eq!(same_top_bids(&lists, &lists), Ok(()));
        assert!(same_top_bids(&lists, &[vec![(id, 8)], vec![]]).is_err());
    }

    #[test]
    fn state_comparison_catches_a_changed_bid() {
        let mut market = Marketplace::builder()
            .slots(2)
            .keywords(2)
            .build_sharded(1)
            .expect("valid");
        let a = market.register_advertiser("a");
        market
            .add_campaign(
                a,
                1,
                CampaignSpec::per_click(Money::from_cents(5)).click_probs(PROBS.to_vec()),
            )
            .expect("valid");
        market.serve(QueryRequest::new(1)).expect("serves");
        let state = market.capture_state().expect("per-click market captures");
        assert_eq!(same_state(&state, &state), Ok(()));
        let mut bad = state.clone();
        bad.campaigns[0].bid_cents += 1;
        assert!(same_state(&state, &bad).is_err());
        let mut bad = state.clone();
        bad.clock += 1;
        assert!(same_state(&state, &bad).unwrap_err().contains("clock"));
    }
}
