//! The clocks a run reads, and the yardstick its gated timings are
//! scaled by.
//!
//! Gated timings count the CPU time of this process, summed over its
//! threads. On a virtual machine that shares its vCPUs, wall time also
//! counts the time the hypervisor (steal) or another process holds the
//! CPU the run is pinned to; the kernel's paravirtual time accounting
//! keeps both out of CPU time. Every thread of a one-shard run shares
//! that CPU (see `main.rs`) and hands work over without idling, so a
//! call's CPU time is its latency with that interference taken out.
//!
//! CPU time still moves with the speed of the host's core, which on the
//! 2-vCPU virtual machine the bounds were set on stepped by up to 1.5x
//! for tens of seconds at a time: a fixed compute kernel's per-second
//! median went from 0.30-0.37 ms to 0.45-0.48 ms and back within 90
//! seconds. So each gated time is also
//! divided, and each rate multiplied, by the host's *slowness*: how long
//! a fixed [`Yardstick`] of the benchmark's own code takes, over its
//! time at the reference speed ([`REFERENCE_NS`]). A run times the
//! yardstick before and after every timed stretch and scales the stretch
//! by the median of the calibrations around it (`inproc::Measured`). The
//! yardstick shares no code with the program, so a change to the program
//! moves the scaled figures as it moves the raw ones. Wall-time figures,
//! unscaled, are printed beside the gated ones as reference lines.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// CPU time this process has used, all threads, in ns.
fn cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used, in ns.
fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Linux's clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU clock {clock} is readable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Both clocks read at once.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

/// What a [`Stopwatch`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    pub wall: Duration,
    pub cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_ns: cpu_ns(),
        }
    }

    pub fn took(&self) -> Took {
        let cpu_ns = cpu_ns();
        Took {
            wall: self.wall.elapsed(),
            cpu: Duration::from_nanos(cpu_ns.saturating_sub(self.cpu_ns)),
        }
    }
}

/// A fixed piece of work in the benchmark's own code, timed to tell how
/// fast the host runs at the moment. It has two parts of about equal
/// time. One is a generalized-second-price auction of its own on each of
/// 10 keywords over 1000 bidders, each bidder a separate allocation with
/// its click probabilities in another: the shape of the program's
/// per-click auctions (scattered records, floating point, a partial
/// sort). The other is a strided read of 2 MiB and multiply-add rounds
/// over 160 KiB. On the 2-vCPU virtual machine the bounds were set on,
/// the first part alone swung more with the host's speed than the
/// programmed (SQL) workload did, and the second less than the per-click
/// ones; together they tracked both better than either alone.
pub struct Yardstick {
    /// Boxed on purpose: one allocation per bidder, as a market holds
    /// its campaigns.
    #[allow(clippy::vec_box)]
    books: Vec<Vec<Box<Bidder>>>,
    scores: Vec<(f64, usize)>,
    stream: Vec<u64>,
    words: Vec<u64>,
}

struct Bidder {
    bid: f64,
    click_probs: Vec<f64>,
}

/// The yardstick's time at the reference host speed, in ns: about its
/// median on the 2-vCPU virtual machine the bounds were set on.
pub const REFERENCE_NS: f64 = 600_000.0;

impl Yardstick {
    const KEYWORDS: usize = 10;
    const BIDDERS: usize = 1000;
    const SLOTS: usize = 15;
    const AUCTION_ROUNDS: usize = 3;
    const STREAM: usize = 1 << 18;
    const WORDS: usize = 20_000;
    const PASSES: usize = 10;

    fn new() -> Self {
        let mut rng = crate::ops::Rng::new(0x5eed);
        let mut books: Vec<Vec<Box<Bidder>>> = (0..Self::KEYWORDS).map(|_| Vec::new()).collect();
        // Bidder by bidder, as a population registers, so that one
        // keyword's records lie scattered among the others'.
        for _ in 0..Self::BIDDERS {
            for book in books.iter_mut() {
                let top = (rng.below(1000) + 1) as f64 / 1000.0;
                book.push(Box::new(Bidder {
                    bid: rng.below(10_000) as f64,
                    click_probs: (0..Self::SLOTS).map(|j| top / (j + 1) as f64).collect(),
                }));
            }
        }
        Yardstick {
            books,
            scores: Vec::with_capacity(Self::BIDDERS),
            stream: (0..Self::STREAM).map(|_| rng.next_u64()).collect(),
            words: (0..Self::WORDS).map(|_| rng.next_u64()).collect(),
        }
    }

    /// The work; returns a checksum so that none of it is optimised away.
    fn work(&mut self) -> u64 {
        let mut sum = (0..Self::AUCTION_ROUNDS).fold(0, |a, _| a ^ self.auctions());
        sum ^= self
            .stream
            .iter()
            .step_by(8)
            .fold(0u64, |a, &w| a.wrapping_add(w));
        for _ in 0..Self::PASSES {
            for w in self.words.iter_mut() {
                *w = w
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407)
                    >> 7;
                sum ^= *w;
            }
        }
        sum
    }

    /// Each keyword's auction, ranked by bid times click probability,
    /// each winner charged what keeps its rank. Returns the revenue's
    /// bits.
    fn auctions(&mut self) -> u64 {
        let by_score = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0);
        let mut revenue = 0.0;
        for book in &self.books {
            self.scores.clear();
            self.scores.extend(
                book.iter()
                    .enumerate()
                    .map(|(i, b)| (b.bid * b.click_probs[0], i)),
            );
            self.scores.select_nth_unstable_by(Self::SLOTS, by_score);
            self.scores[..=Self::SLOTS].sort_unstable_by(by_score);
            for (j, pair) in self.scores[..=Self::SLOTS].windows(2).enumerate() {
                let winner = &book[pair[0].1];
                let price = pair[1].0 / winner.click_probs[0];
                revenue += price * winner.click_probs[j];
            }
        }
        revenue.to_bits()
    }

    /// CPU time of the work on the calling thread, median of nine, in ns:
    /// another of the run's threads that takes the CPU meanwhile (a
    /// server thread finishing a write, say) is not counted.
    fn time_ns(&mut self) -> f64 {
        let mut times: Vec<u64> = (0..9)
            .map(|_| {
                let start = thread_cpu_ns();
                std::hint::black_box(self.work());
                thread_cpu_ns() - start
            })
            .collect();
        times.sort_unstable();
        times[4] as f64
    }
}

/// The yardstick's time now over its time at the reference speed: 1.25
/// means the host runs a fifth slower than the reference.
pub fn host_slowness() -> f64 {
    static YARDSTICK: OnceLock<Mutex<Yardstick>> = OnceLock::new();
    let yardstick = YARDSTICK.get_or_init(|| Mutex::new(Yardstick::new()));
    yardstick.lock().expect("yardstick lock").time_ns() / REFERENCE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_clocks_advance_with_work() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        while watch.took().cpu < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let worked = watch.took();
        assert!(worked.cpu >= Duration::from_millis(20));
        assert!(worked.wall > Duration::ZERO, "{worked:?}");
    }
}
