//! What a run reports: the summary and the result line on standard output,
//! and the full report (and a traced run's spans) under `.perfbench/`.

use crate::stats::Spread;
use crate::trace::{self, Span};
use crate::{cores, Args, Checks, SPANS_FILE_REQUESTS};

/// One reported metric.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    spread: Option<Spread>,
    /// The per-window (or per-set-up) values the spread is taken over.
    values: Vec<f64>,
}

impl Metric {
    pub fn single(name: &str, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            spread: None,
            values: Vec::new(),
        }
    }

    /// A metric measured per window (or per set-up): its value is the
    /// median.
    pub fn spread(name: &str, unit: &'static str, values: Vec<f64>) -> Self {
        let spread = Spread::of(&values);
        Self {
            name: name.to_string(),
            unit,
            value: spread.median,
            spread: Some(spread),
            values,
        }
    }
}

/// The outcome of one run.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// Run provenance as JSON object members (see [`provenance`]).
    pub provenance: String,
    pub spans: Vec<Span>,
}

/// A finite number as JSON (non-finite values cannot be represented).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// Prints the human-readable summary and the result line, and writes
    /// the full report (and spans) under `.perfbench/`.
    pub fn emit(&self, args: &Args) {
        println!(
            "perfbench {} seed {} ({} s, trace {})",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for metric in &self.metrics {
            match metric.spread {
                Some(s) => println!(
                    "  {:<34} {:>14.3} {:<7} quartiles {:.3} .. {:.3} over {} samples",
                    metric.name, metric.value, metric.unit, s.q1, s.q3, s.samples
                ),
                None => println!(
                    "  {:<34} {:>14.3} {}",
                    metric.name, metric.value, metric.unit
                ),
            }
        }
        for (name, passed, detail) in &self.checks.items {
            println!(
                "  [{}] {name}: {detail}",
                if *passed { "ok" } else { "FAILED" }
            );
        }
        let stem = format!(
            ".perfbench/{}-seed{}-trace{}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        if let Err(error) = self.write_files(&stem) {
            eprintln!("perfbench: could not write {stem}.json: {error}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }

    fn write_files(&self, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(".perfbench")?;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let spread = m.spread.map_or_else(String::new, |s| {
                    let values: Vec<String> = m.values.iter().map(|&v| json_number(v)).collect();
                    format!(
                        ",\"median\":{},\"q1\":{},\"q3\":{},\"samples\":{},\"values\":[{}]",
                        json_number(s.median),
                        json_number(s.q1),
                        json_number(s.q3),
                        s.samples,
                        values.join(",")
                    )
                });
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"{spread}}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .items
            .iter()
            .map(|(name, passed, detail)| {
                format!("{{\"check\":\"{name}\",\"passed\":{passed},\"detail\":\"{detail}\"}}")
            })
            .collect();
        let report = format!(
            "{{\"provenance\":{{{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"checks\":[{}]}}\n",
            self.provenance,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(","),
            checks.join(",")
        );
        std::fs::write(format!("{stem}.json"), report)?;
        if !self.spans.is_empty() {
            let first: Vec<Span> = self
                .spans
                .iter()
                .filter(|span| span.request < SPANS_FILE_REQUESTS)
                .cloned()
                .collect();
            std::fs::write(format!("{stem}.spans.jsonl"), trace::spans_jsonl(&first))?;
        }
        Ok(())
    }
}

/// Run provenance as JSON object members (without braces).
pub fn provenance(args: &Args) -> String {
    format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cores\":{},\"git_commit\":\"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        cores(),
        git_commit(),
    )
}

/// The checkout's commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
