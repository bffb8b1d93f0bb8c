//! The benchmark's output: a human-readable report on stdout, then one
//! JSON result object as the last line.

use std::fmt::Write as _;

/// End-to-end metrics, printed on every workload with `--trace 0`.
/// Names and units match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("recover_s", "s"),
    ("disk_bytes_per_point", "bytes"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`. A
/// layer the workload does not exercise reports 0. Names and units match
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("cloud-sim.step_ms", "ms"),
    ("collector.plan_ms", "ms"),
    ("collector.sps_ms", "ms"),
    ("collector.advisor_ms", "ms"),
    ("collector.price_ms", "ms"),
    ("collector.queries_per_round", "count"),
    ("collector.records_per_round", "count"),
    ("collector.service_self_ms", "ms"),
    ("timestream.commit_ms", "ms"),
    ("timestream.wal_frames_per_round", "count"),
    ("timestream.wal_bytes_per_record", "bytes"),
    ("timestream.maintain_ms", "ms"),
    ("timestream.maintain_tail_ms", "ms"),
    ("timestream.checkpoint_bytes", "bytes"),
    ("timestream.recover_ms", "ms"),
    ("timestream.open_ms", "ms"),
    ("timestream.query_ms", "ms"),
    ("timestream.query_tail_ms", "ms"),
    ("timestream.rows_decoded", "count"),
    ("timestream.rows_returned", "count"),
    ("timestream.decoded_per_returned", "ratio"),
    ("timestream.series_scanned_per_request", "count"),
    ("serving.gateway_self_ms", "ms"),
    ("serving.gateway_self_tail_ms", "ms"),
    ("serving.response_bytes", "bytes"),
    ("serving.wire_ms", "ms"),
    ("serving.queue_wait_ms", "ms"),
    ("obs.record_us", "us"),
    ("obs.metrics_render_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.ops_traced", "count"),
];

/// Collects metrics, correctness verdicts and op counts for one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    /// Operations attempted in the measured (untraced) phase.
    pub attempted: u64,
    /// Operations that failed in the measured phase.
    pub failed: u64,
}

impl Report {
    /// Prints an informational line.
    pub fn info(&self, line: impl AsRef<str>) {
        println!("{}", line.as_ref());
    }

    /// Records and prints one metric. `note` says how it was measured.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        let value = if value.is_finite() {
            value
        } else {
            self.fail(format!("metric {name} is not finite ({value})"));
            0.0
        };
        if note.is_empty() {
            println!("  {name} = {value} {unit}");
        } else {
            println!("  {name} = {value} {unit}  ({note})");
        }
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            println!("  check ok: {what}");
        } else {
            self.fail(what);
        }
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        println!("  CHECK FAILED: {what}");
        self.failures.push(what);
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The value recorded for `name`, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The result line: every metric in `names`, in that order. A listed
    /// metric the run did not record is reported as 0 — only per-layer
    /// metrics of layers a workload does not exercise are left unset.
    pub fn result_json(&self, names: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.value(name).unwrap_or(0.0);
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip form keeps.
fn json_number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables above and `BENCHMARK.json` must name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let end = body.find(']').expect("section end");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("open quote") + 1;
                        let close = rest[open..].find('"').expect("close quote") + open;
                        rest[open..close].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(&END_TO_END));
        assert_eq!(section("per_layer"), want(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_named_metric() {
        let mut r = Report::default();
        r.metric("setup_s", 0.25, "s", "");
        r.attempted = 3;
        let line = r.result_json(&[("setup_s", "s"), ("op_p50_ms", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"op_p50_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
        r.fail("boom");
        assert!(r
            .result_json(&END_TO_END)
            .starts_with("{\"correct\": false"));
    }
}
