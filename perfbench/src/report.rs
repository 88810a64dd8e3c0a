//! The metrics a run reports and the result line it prints.

use crate::inproc::Measured;
use crate::stats::Samples;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Gated end-to-end metrics, with units; every workload reports each.
/// Write latency is printed as a reference line only: in process it is a
/// 1–3 µs call whose median moved by a third between runs here.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("auctions_per_s", "1/s"),
    ("serve_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with units. A layer a workload
/// does not reach reads 0 there (see the README's table).
pub const PER_LAYER: [(&str, &str); 25] = [
    ("core.eval_us", "us"),
    ("core.fill_us", "us"),
    ("core.solve_us", "us"),
    ("core.pricing_us", "us"),
    ("core.settle_us", "us"),
    ("core.cold_solves", "per1000"),
    ("core.candidates_per_solve", "count"),
    ("market.overhead_us", "us"),
    ("market.update_bid_us", "us"),
    ("market.populate_us", "us"),
    ("matching.solve_us_per_solve", "us"),
    ("minidb.rows_scanned", "rows"),
    ("minidb.sql_over_native", "ratio"),
    ("minidb.prepare_ms", "ms"),
    ("net.rtt_overhead_us", "us"),
    ("net.codec_us", "us"),
    ("net.bytes_per_serve", "B"),
    ("net.wait_us", "us"),
    ("net.setup_rpc_us", "us"),
    ("net.overloaded", "count"),
    ("durable.append_us", "us"),
    ("durable.snapshot_ms", "ms"),
    ("durable.replay_records", "count"),
    ("durable.replay_us_per_record", "us"),
    ("durable.snapshot_bytes", "B"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Output-check failures; the run is correct when this is empty.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Reference figures printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(problem) = result {
            self.problems.push(problem);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end metrics, medians over the run's samples, with the
    /// wall-time figures and the host's slowness beside them as reference
    /// lines (see [`crate::clock`]).
    pub fn set_end_to_end(&mut self, m: &mut Measured, peak_rss_mb: f64) {
        m.finish();
        let mut slowness = Samples::default();
        m.slowness.iter().for_each(|&x| slowness.push(x));
        for (name, samples) in [
            ("setup_s", &m.setup_s),
            ("auctions_per_s", &m.rates),
            ("serve_ms", &m.serve_ms),
            ("write_ms", &m.write_ms),
            ("wall setup_s", &m.wall_setup_s),
            ("wall auctions_per_s", &m.wall_rates),
            ("wall serve_ms", &m.wall_serve_ms),
            ("host slowness", &slowness),
        ] {
            self.note(format!("{name}: {}", samples.describe()));
        }
        for (name, value) in [
            ("setup_s", m.setup_s.median()),
            ("auctions_per_s", m.rates.median()),
            ("serve_p50_ms", m.serve_ms.median()),
            ("peak_rss_mb", peak_rss_mb),
        ] {
            self.end_to_end.insert(name, value);
        }
    }

    /// The engine and marketplace layers, from the phase reports of
    /// throughput-phase batches and from the update-bid spans.
    pub fn set_engine_layers(&mut self, m: &Measured, tracer: &Tracer) {
        let p = &m.phases;
        let per_auction = |ns: u64| ns as f64 / 1e3 / m.batch_auctions.max(1) as f64;
        self.layers
            .insert("core.eval_us", per_auction(p.program_eval_ns));
        self.layers
            .insert("core.fill_us", per_auction(p.matrix_fill_ns));
        self.layers.insert("core.solve_us", per_auction(p.solve_ns));
        self.layers
            .insert("core.pricing_us", per_auction(p.pricing_ns));
        self.layers
            .insert("core.settle_us", per_auction(p.settlement_ns));
        self.layers.insert(
            "core.cold_solves",
            p.solves as f64 * 1000.0 / m.batch_auctions.max(1) as f64,
        );
        self.layers
            .insert("core.candidates_per_solve", p.avg_candidates());
        self.layers.insert(
            "market.overhead_us",
            per_auction(m.batch_wall_ns.saturating_sub(p.total_ns())),
        );
        self.layers.insert(
            "matching.solve_us_per_solve",
            p.solve_ns as f64 / 1e3 / p.solves.max(1) as f64,
        );
        let updates = tracer.durations_ns("market.update_bid");
        if !updates.is_empty() {
            let mut s = Samples::default();
            updates.iter().for_each(|&ns| s.push(ns as f64 / 1e3));
            self.layers.insert("market.update_bid_us", s.median());
        }
    }

    pub fn set_durable_layers(&mut self, d: &crate::probe::DurableFigures) {
        self.layers.insert("durable.append_us", d.append_us);
        self.layers.insert("durable.snapshot_ms", d.snapshot_ms);
        self.layers
            .insert("durable.snapshot_bytes", d.snapshot_bytes);
        self.layers
            .insert("durable.replay_records", d.replay_records);
        self.layers
            .insert("durable.replay_us_per_record", d.replay_us_per_record);
        if d.snapshot_bytes > 0.0 {
            self.note(format!(
                "snapshot_load_ms: {} (recovering the snapshot alone)",
                d.snapshot_load_ms
            ));
        }
    }

    /// Prints the reference lines, then the result as the last line:
    /// end-to-end metrics untraced, per-layer metrics traced.
    pub fn print(&self, traced: bool) {
        for line in &self.notes {
            println!("{line}");
        }
        for problem in &self.problems {
            println!("check failed: {problem}");
        }
        let (table, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        if traced {
            let e2e: Vec<String> = END_TO_END
                .iter()
                .map(|(name, _)| format!("{name}={}", self.end_to_end[name]))
                .collect();
            println!("traced end-to-end: {}", e2e.join(" "));
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                assert!(value.is_finite(), "{name} is not a number: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
