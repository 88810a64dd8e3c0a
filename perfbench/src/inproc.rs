//! The timed phases of an in-process run, and twin replays of an
//! operation log.

use crate::clock::{host_slowness, Stopwatch, Took};
use crate::ops::{exec, span_name, Market, Op, OpLog, Outcome, Population, Rng, FAILED};
use crate::stats::Samples;
use crate::trace::Tracer;
use ssa_core::marketplace::QueryRequest;
use ssa_core::PhaseStats;
use std::time::{Duration, Instant};

/// What the timed phases measured.
///
/// The gated timings are CPU time (see [`crate::clock`]) scaled to the
/// yardstick's reference host speed. A call's samples wait in a stretch
/// until [`Measured::calibrate`] closes it; [`Measured::finish`] then
/// scales each stretch by the host's slowness around it. The `wall_`
/// samples are reference figures, as measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up's time, in s.
    pub setup_s: Samples,
    pub wall_setup_s: Samples,
    /// Single-auction latency with one request outstanding, in ms.
    pub serve_ms: Samples,
    pub wall_serve_ms: Samples,
    /// Control-plane write latency, in ms.
    pub write_ms: Samples,
    /// Auctions per second of each throughput-phase batch (or pipelined
    /// window).
    pub rates: Samples,
    pub wall_rates: Samples,
    /// The host's slowness at each calibration, in order
    /// ([`host_slowness`]).
    pub slowness: Vec<f64>,
    /// Engine phases summed over the throughput-phase batches.
    pub phases: PhaseStats,
    /// Wall time of those batch calls, in ns.
    pub batch_wall_ns: u64,
    pub batch_auctions: u64,
    pending: Unscaled,
    /// Closed stretches, each with the index of the calibration after it.
    stretches: Vec<(usize, Unscaled)>,
}

/// CPU-time samples not yet scaled: times in their unit, and rates.
#[derive(Debug, Default)]
struct Unscaled {
    setup_s: Vec<f64>,
    serve_ms: Vec<f64>,
    write_ms: Vec<f64>,
    rates: Vec<f64>,
}

impl Unscaled {
    fn is_empty(&self) -> bool {
        self.setup_s.is_empty()
            && self.serve_ms.is_empty()
            && self.write_ms.is_empty()
            && self.rates.is_empty()
    }
}

/// Calibrations on each side of a stretch, beyond the two that bound it,
/// whose median slowness scales it. One calibration alone can be caught
/// by an interrupt or the host's jitter, while the host's speed can step
/// within seconds; the 8 calibrations span about two seconds. (Over six
/// 20-second static-1k runs, 8 calibrations left throughput a quartile
/// spread of 0.066 and 22 one of 0.110.)
const CALIBRATIONS_AROUND: usize = 3;

impl Measured {
    pub fn record_setup(&mut self, took: Took) {
        self.pending.setup_s.push(took.cpu.as_secs_f64());
        self.wall_setup_s.push(took.wall.as_secs_f64());
    }

    /// `auctions` completed in `took`.
    pub fn record_rate(&mut self, auctions: u64, took: Took) {
        let rate = |d: Duration| auctions as f64 / d.as_secs_f64().max(1e-9);
        self.pending.rates.push(rate(took.cpu));
        self.wall_rates.push(rate(took.wall));
    }

    pub fn record(&mut self, op: &Op, took: Took, outcome: &Outcome) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        match outcome {
            Outcome::Batch(report) => {
                self.record_rate(op.auctions(), took);
                self.phases.absorb(&report.total.phases);
                self.batch_wall_ns += took.wall.as_nanos() as u64;
                self.batch_auctions += op.auctions();
            }
            Outcome::Auction(_) => {
                self.pending.serve_ms.push(ms(took.cpu));
                self.wall_serve_ms.push(ms(took.wall));
            }
            Outcome::Ack if op.is_write() => self.pending.write_ms.push(ms(took.cpu)),
            _ => {}
        }
    }

    /// Times the yardstick and closes the stretch of samples recorded
    /// since the last call. Call it before and after every timed stretch.
    pub fn calibrate(&mut self) {
        self.calibrate_at(host_slowness());
    }

    fn calibrate_at(&mut self, slowness: f64) {
        self.slowness.push(slowness);
        if !self.pending.is_empty() {
            let stretch = std::mem::take(&mut self.pending);
            self.stretches.push((self.slowness.len() - 1, stretch));
        }
    }

    /// Scales every closed stretch into the gated samples: times are
    /// divided by the median slowness of the calibrations around it,
    /// rates multiplied.
    pub fn finish(&mut self) {
        assert!(self.pending.is_empty(), "every stretch is calibrated");
        for (after, stretch) in std::mem::take(&mut self.stretches) {
            let from = after.saturating_sub(1 + CALIBRATIONS_AROUND);
            let to = (after + CALIBRATIONS_AROUND).min(self.slowness.len() - 1);
            let mut around = Samples::default();
            self.slowness[from..=to]
                .iter()
                .for_each(|&x| around.push(x));
            let slowness = around.median();
            for (values, samples) in [
                (stretch.setup_s, &mut self.setup_s),
                (stretch.serve_ms, &mut self.serve_ms),
                (stretch.write_ms, &mut self.write_ms),
            ] {
                values.into_iter().for_each(|v| samples.push(v / slowness));
            }
            for v in stretch.rates {
                self.rates.push(v * slowness);
            }
        }
    }

    /// Moves the set-up samples of `setups` into this one.
    pub fn take_setups(&mut self, mut setups: Measured) {
        setups.finish();
        self.setup_s = setups.setup_s;
        self.wall_setup_s = setups.wall_setup_s;
        let earlier = setups.slowness.len();
        self.slowness.splice(0..0, setups.slowness);
        self.stretches
            .iter_mut()
            .for_each(|(after, _)| *after += earlier);
    }
}

/// Runs `op`, timing the call alone, and logs it.
fn timed<M: Market>(
    market: &mut M,
    op: Op,
    log: &mut OpLog,
    tracer: &mut Tracer,
    measured: Option<&mut Measured>,
) {
    let batch = match op {
        Op::Batch { start, len } => log.batch(start, len),
        _ => Vec::new(),
    };
    let request = log.attempted() + 1;
    let span = tracer.enter(span_name(&op), request);
    let watch = Stopwatch::start();
    let outcome = exec(market, op, &batch);
    let took = watch.took();
    tracer.exit(span);
    if let Some(m) = measured {
        m.record(&op, took, &outcome);
    }
    log.push(op, &outcome);
}

/// Appends a batch of `len` uniformly drawn keywords to the log's stream.
pub fn draw_batch(pop: &Population, rng: &mut Rng, log: &mut OpLog, len: usize) -> Op {
    let start = log.batch_keywords.len();
    log.batch_keywords
        .extend((0..len).map(|_| rng.below(pop.keywords)));
    Op::Batch { start, len }
}

/// Warm-up: one untimed batch of `len` auctions.
pub fn warm_up<M: Market>(
    market: &mut M,
    pop: &Population,
    rng: &mut Rng,
    log: &mut OpLog,
    len: usize,
    tracer: &mut Tracer,
) {
    let op = draw_batch(pop, rng, log, len);
    timed(market, op, log, tracer, None);
}

/// Blocks a run's timed phases alternate in: one per second. Each
/// metric's samples then span the whole run, so the host's speed drifting
/// during it (seen here as up to 1.5x within a 10-second phase) weighs
/// the same on every metric.
pub fn blocks(seconds: f64) -> (usize, Duration) {
    let n = (seconds.round() as usize).max(1);
    (n, Duration::from_secs_f64(seconds / (2 * n) as f64))
}

/// The two timed phases, alternating in [`blocks`], `seconds / 2` each in
/// all, in whole rounds.
///
/// * Closed loop: [`Population::closed_round`]s, every call timed.
/// * Throughput: rounds of one `serve_batch` of `batch` auctions, preceded
///   for per-click populations by one bid update per ten auctions.
///
/// The yardstick is timed just before and just after each phase (see
/// [`Measured::calibrate`]). After each phase, outside its timing,
/// `checkpoint` checks the log of the operations since the one before,
/// which is then retired.
#[allow(clippy::too_many_arguments)]
pub fn measure<M: Market>(
    market: &mut M,
    pop: &Population,
    rng: &mut Rng,
    log: &mut OpLog,
    batch: usize,
    seconds: f64,
    tracer: &mut Tracer,
    checkpoint: &mut dyn FnMut(&OpLog, &mut Tracer),
) -> Measured {
    let mut m = Measured::default();
    let (n, each) = blocks(seconds);
    for _ in 0..n {
        m.calibrate();
        let phase = tracer.enter("phase.closed_loop", 0);
        let start = Instant::now();
        while start.elapsed() < each {
            for op in pop.closed_round(rng) {
                timed(market, op, log, tracer, Some(&mut m));
            }
        }
        tracer.exit(phase);
        m.calibrate();
        checkpoint(log, tracer);
        log.retire();

        m.calibrate();
        let phase = tracer.enter("phase.throughput", 0);
        let start = Instant::now();
        while start.elapsed() < each {
            if pop.per_click {
                for _ in 0..batch / 10 {
                    timed(market, pop.update(rng), log, tracer, Some(&mut m));
                }
            }
            let op = draw_batch(pop, rng, log, batch);
            timed(market, op, log, tracer, Some(&mut m));
        }
        tracer.exit(phase);
        m.calibrate();
        checkpoint(log, tracer);
        log.retire();
    }
    m
}

/// Replays `log` on a twin, calling `each` with every operation's index,
/// outcome and call time; returns the twin's digests. Operations the run
/// saw fail are skipped (the program never applied them).
pub fn replay<M: Market>(
    twin: &mut M,
    log: &OpLog,
    mut each: impl FnMut(usize, &Outcome, Took),
) -> Vec<u64> {
    let mut digests = Vec::with_capacity(log.ops.len());
    for (i, op) in log.ops.iter().enumerate() {
        if log.digests[i] == FAILED {
            digests.push(FAILED);
            continue;
        }
        let batch: Vec<QueryRequest> = match *op {
            Op::Batch { start, len } => log.batch(start, len),
            _ => Vec::new(),
        };
        let watch = Stopwatch::start();
        let outcome = exec(twin, *op, &batch);
        each(i, &outcome, watch.took());
        digests.push(outcome.digest());
    }
    digests
}

#[cfg(test)]
mod tests {
    use super::*;

    fn took_ms(cpu: u64, wall: u64) -> Took {
        Took {
            wall: Duration::from_millis(wall),
            cpu: Duration::from_millis(cpu),
        }
    }

    #[test]
    fn stretches_scale_by_the_median_slowness_around_them() {
        let mut m = Measured::default();
        m.calibrate_at(2.0);
        m.record_setup(took_ms(4, 8));
        m.record_rate(100, took_ms(50, 100));
        // One calibration caught by a hiccup does not move the scale.
        m.calibrate_at(9.0);
        m.calibrate_at(2.0);
        m.record_rate(100, took_ms(25, 25));
        m.calibrate_at(2.0);
        m.finish();
        assert_eq!(m.setup_s.median(), 0.004 / 2.0);
        assert_eq!(m.wall_setup_s.median(), 0.008);
        assert_eq!(m.rates.p(100.0), 4000.0 * 2.0);
        assert_eq!(m.rates.p(1.0), 2000.0 * 2.0);
        assert_eq!(m.wall_rates.p(1.0), 1000.0);
        assert_eq!(m.slowness, vec![2.0, 9.0, 2.0, 2.0]);
    }

    #[test]
    fn set_ups_keep_their_own_calibrations() {
        let mut setups = Measured::default();
        setups.calibrate_at(3.0);
        setups.record_setup(took_ms(6, 6));
        setups.calibrate_at(3.0);
        let mut m = Measured::default();
        m.calibrate_at(1.0);
        m.record_rate(10, took_ms(10, 10));
        m.calibrate_at(1.0);
        m.take_setups(setups);
        m.finish();
        assert_eq!(m.setup_s.median(), 0.002);
        assert_eq!(m.slowness, vec![3.0, 3.0, 1.0, 1.0]);
        // The rates' stretch reaches back into the set-ups' calibrations:
        // the median of 3, 3, 1, 1 by nearest rank is 1.
        assert_eq!(m.rates.median(), 1000.0);
    }

    #[test]
    #[should_panic(expected = "calibrated")]
    fn an_uncalibrated_stretch_is_refused() {
        let mut m = Measured::default();
        m.calibrate_at(1.0);
        m.record_rate(10, took_ms(10, 10));
        m.finish();
    }
}
