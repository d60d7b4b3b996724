//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv_read|kv_snapshot|fork_invoke> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up several times and reports the median
//! set-up time, then measures for `--seconds`, checking every output
//! against an oracle. It prints a human-readable report and, as its last
//! line, one JSON object: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a traced run. See README.md.

mod invoke;
mod kv;
mod oracle;
mod rng;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use odf_core::KernelStats;
use odf_trace::FaultKind;

use crate::stats::{median, median_f64, sorted, tail, OpLog, Tracer};

/// Independent rounds per untraced run. Each sets the system up afresh
/// (new machine, new threads, a new placement of them on the cores) and
/// measures for a fifth of the run; every end-to-end metric, set-up time
/// included, is the median over the rounds. On a shared host the speed
/// of the machine drifts from one few-second stretch to the next, so a
/// median over several short rounds is steadier than one long one.
pub(crate) const ROUNDS: u64 = 5;

/// End-to-end metrics, reported by untraced runs: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Measured and printed by untraced runs, but not in the result line.
/// On a shared host these tails follow other tenants: in a noisy hour the
/// p99.9 of `kv_snapshot` doubles from run to run, far beyond any bound a
/// regression gate could hold, while the p90 moves by a few percent.
const PRINTED_ONLY: &[(&str, &str)] = &[("latency_p99_us", "us"), ("latency_p999_us", "us")];

/// Per-layer metrics, reported by traced runs: (name, unit). Counts are
/// per op over the traced window (op = request, or invocation).
const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.busy_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("kvstore.batch_rtt_us.p50", "us"),
    ("kvstore.batch_rtt_us.p99", "us"),
    ("kvstore.bgsave_ack_us.p50", "us"),
    ("kvstore.fork_us.p50", "us"),
    ("kvstore.fork_us.max", "us"),
    ("kvstore.snapshot_ms.p50", "ms"),
    ("kvstore.store_get_us", "us"),
    ("kvstore.store_set_us", "us"),
    ("vm.read_u64_ns", "ns"),
    ("vm.fork_us.p50", "us"),
    ("vm.fork_us.p99", "us"),
    ("vm.child_write_us.p50", "us"),
    ("vm.child_read_ns.p50", "ns"),
    ("vm.exit_us.p50", "us"),
    ("vm.fork_classic_us.p50", "us"),
    ("vm.fault_ns.demand.p50", "ns"),
    ("vm.fault_ns.cow.p50", "ns"),
    ("vm.fault_ns.table_cow.p50", "ns"),
    ("vm.faults", "count/op"),
    ("vm.faults_demand", "count/op"),
    ("vm.cow_data_copies", "count/op"),
    ("vm.cow_table_copies", "count/op"),
    ("vm.cow_reuses", "count/op"),
    ("vm.fork_tables_shared", "count/op"),
    ("vm.tlb_flushes", "count/op"),
    ("vm.retry_ratio", "ratio"),
    ("pmem.allocs", "count/op"),
    ("pmem.frees", "count/op"),
    ("pmem.page_ref_incs", "count/op"),
    ("pmem.bytes_copied", "B/op"),
    ("pmem.bulk_free_batches", "count/op"),
    ("pmem.pcp_hit_ratio", "ratio"),
    ("vm.mem_used_mib", "MiB"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Workload {
    KvRead,
    KvSnapshot,
    ForkInvoke,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "kv_read" => Some(Workload::KvRead),
            "kv_snapshot" => Some(Workload::KvSnapshot),
            "fork_invoke" => Some(Workload::ForkInvoke),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::KvRead => "kv_read",
            Workload::KvSnapshot => "kv_snapshot",
            Workload::ForkInvoke => "fork_invoke",
        }
    }

    /// Why a per-layer metric the run did not produce is absent.
    fn absent_reason(self, metric: &str) -> &'static str {
        let invocation = ["vm.fork_us", "vm.child_", "vm.exit_us"];
        match self {
            Workload::ForkInvoke if metric.starts_with("kvstore.") => "fork_invoke runs no server",
            Workload::KvRead if metric.starts_with("kvstore.") => "kv_read takes no BGSAVE",
            _ if metric.starts_with("vm.fault_ns") => "no such fault in the traced window",
            _ if metric == "vm.retry_ratio" => "no faults in the traced window",
            Workload::KvRead | Workload::KvSnapshot
                if invocation.iter().any(|p| metric.starts_with(p)) =>
            {
                "kv workloads make no fork invocations"
            }
            _ => "too few samples in the traced window",
        }
    }
}

/// The command line, checked.
pub(crate) struct Args {
    pub(crate) workload: Workload,
    pub(crate) seed: u64,
    pub(crate) seconds: u64,
    pub(crate) trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|&s| (1..=600).contains(&s))
                            .ok_or_else(bad)?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }

    pub(crate) fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Metric values by name, as a run measured them.
#[derive(Default)]
pub(crate) struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub(crate) fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub(crate) fn opt(&mut self, name: &'static str, v: Option<f64>) {
        if let Some(v) = v {
            self.set(name, v);
        }
    }

    pub(crate) fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The end-to-end set of one round, over the quiet windows of its op
    /// log (see [`OpLog::quiet_windows`]): the median window throughput,
    /// and latency percentiles of their pooled ops.
    fn round(log: &OpLog, setup_s: f64) -> Values {
        let mut v = Values::default();
        let windows = log.quiet_windows();
        if !windows.is_empty() {
            v.set(
                "ops_per_s",
                median_f64(windows.iter().map(|w| w.ops_per_s).collect()),
            );
        }
        let mut pooled: Vec<u64> = windows.into_iter().flat_map(|w| w.latency_ns).collect();
        let lat = sorted(&mut pooled);
        let us = |ns: Option<u64>| ns.map(|ns| ns as f64 / 1e3);
        v.opt("latency_p50_us", us(median(lat)));
        v.opt("latency_p90_us", us(tail(lat, 0.9)));
        v.opt("latency_p99_us", us(tail(lat, 0.99)));
        v.opt("latency_p999_us", us(tail(lat, 0.999)));
        v.set("setup_s", setup_s);
        v
    }

    /// The end-to-end metrics of a run: per metric, the median over its
    /// rounds (absent if any round could not measure it). The peak RSS is
    /// the first round's: later rounds reuse host memory the allocator
    /// kept from earlier ones, so the process's peak after them depends on
    /// which of its arenas each round's threads drew from.
    pub(crate) fn end_to_end(rounds: &[Round]) -> Values {
        let per_round: Vec<Values> = rounds
            .iter()
            .map(|r| Values::round(&r.log, r.setup_s))
            .collect();
        let mut v = Values::default();
        for &(name, _) in END_TO_END.iter().chain(PRINTED_ONLY) {
            let all: Option<Vec<f64>> = per_round.iter().map(|r| r.get(name)).collect();
            v.opt(name, all.filter(|a| !a.is_empty()).map(median_f64));
        }
        v.set("peak_rss_mib", rounds[0].peak_rss_mib);
        v
    }
}

/// One untraced round: how long its set-up took, and what it measured.
pub(crate) struct Round {
    pub(crate) setup_s: f64,
    pub(crate) log: OpLog,
    /// The process's peak RSS when the round ended.
    pub(crate) peak_rss_mib: f64,
}

/// What a run measured and whether every output checked out.
#[derive(Default)]
pub(crate) struct Outcome {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) first_error: Option<String>,
    pub(crate) values: Values,
    pub(crate) notes: Vec<String>,
    /// The traced run's spans, written out at exit.
    pub(crate) spans: Option<Tracer>,
}

impl Outcome {
    /// Books checked outputs: `attempted` of them, `failed` wrong.
    pub(crate) fn checked(&mut self, attempted: u64, failed: u64, first_error: &Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(e) = first_error {
            self.first_error.get_or_insert_with(|| e.clone());
        }
    }
}

/// Fault latency medians from the kernel's own trace events, recorded
/// during the traced window.
pub(crate) fn layer_summary(values: &mut Values) {
    let summary = odf_trace::snapshot().summary();
    for (name, kind) in [
        ("vm.fault_ns.demand.p50", FaultKind::DemandZero),
        ("vm.fault_ns.cow.p50", FaultKind::CowData),
        ("vm.fault_ns.table_cow.p50", FaultKind::TableCow),
    ] {
        let hist = summary.fault_hist(kind).filter(|h| h.count() > 0);
        values.opt(name, hist.map(|h| h.percentile(50.0) as f64));
    }
}

/// Kernel counter deltas over the traced window, per op.
pub(crate) fn kernel_counters(values: &mut Values, d: &KernelStats, ops: u64) {
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    let (vm, pool) = (&d.vm, &d.pool);
    for (name, n) in [
        ("vm.faults", vm.faults),
        ("vm.faults_demand", vm.faults_demand),
        ("vm.cow_data_copies", vm.cow_data_copies),
        ("vm.cow_table_copies", vm.cow_table_copies),
        ("vm.cow_reuses", vm.cow_reuses),
        ("vm.fork_tables_shared", vm.fork_tables_shared),
        ("vm.tlb_flushes", vm.tlb_flushes),
        ("pmem.allocs", pool.allocs),
        ("pmem.frees", pool.frees),
        ("pmem.page_ref_incs", pool.page_ref_incs),
        ("pmem.bytes_copied", pool.bytes_copied),
        ("pmem.bulk_free_batches", pool.bulk_free_batches),
    ] {
        values.set(name, per_op(n));
    }
    if vm.faults > 0 {
        let wasted = vm.fault_retries + vm.access_pin_retries + vm.install_races_lost;
        values.set("vm.retry_ratio", wasted as f64 / vm.faults as f64);
    }
    let pcp = pool.pcp_hits + pool.pcp_misses;
    values.set(
        "pmem.pcp_hit_ratio",
        pool.pcp_hits as f64 / pcp.max(1) as f64,
    );
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <kv_read|kv_snapshot|fork_invoke> \
                 --seed <n> --seconds <1..600> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Kernel trace events only in the traced window; rings large enough to
    // hold the window's tail of fault events.
    odf_trace::set_enabled(false);
    std::env::set_var("ODF_TRACE_CAPACITY", (1 << 16).to_string());
    let result = match args.workload {
        Workload::KvRead => kv::run(&kv::KV_READ, &args),
        Workload::KvSnapshot => kv::run(&kv::KV_SNAPSHOT, &args),
        Workload::ForkInvoke => invoke::run(&args),
    };
    let out = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {} failed: {e}", args.workload.name());
        std::process::exit(1);
    });
    std::process::exit(report(&args, out));
}

/// Prints the report and the result line; returns the exit code.
fn report(args: &Args, out: Outcome) -> i32 {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = match out.values.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                eprintln!("perfbench: {name} measured as {v}");
                return 1;
            }
            None if args.trace => {
                println!(
                    "{name:<28} {:>16} {unit}: {}",
                    "absent",
                    args.workload.absent_reason(name)
                );
                metrics.push(format!(
                    "\"{name}\": {{\"value\": 0, \"unit\": \"{unit}\"}}"
                ));
                continue;
            }
            None => {
                eprintln!(
                    "perfbench: {name} has too few samples: a tail needs {} beyond it",
                    stats::TAIL_MIN_BEYOND
                );
                return 1;
            }
        };
        println!("{name:<28} {value:>16.4} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "error_ratio {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if let Some(e) = &out.first_error {
        println!("first error: {e}");
    }
    if !args.trace {
        for &(name, unit) in PRINTED_ONLY {
            match out.values.get(name) {
                Some(value) => println!("{name:<28} {value:>16.4} {unit} (not gated)"),
                None => println!("{name:<28} {:>16} {unit} (too few samples)", "unresolved"),
            }
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    if let Some(spans) = &out.spans {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", args.workload.name()));
        match spans.write_tsv(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload kv_read --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::KvRead, 7, 3, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload kv_read --trace 2").is_err());
        assert!(args("--workload kv_read --seconds 0").is_err());
        assert!(args("--seed 1").is_err(), "workload required");
        assert!(args("--workload kv_read --seed").is_err());
    }

    /// BENCHMARK.json names exactly the metrics this program reports.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names.contains(&name), "{name} missing from BENCHMARK.json");
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&decl),
                "{name} has another unit in BENCHMARK.json"
            );
        }
        let workloads = ["kv_read", "kv_snapshot", "fork_invoke"];
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len() + workloads.len()
        );
        for w in workloads {
            assert!(names.contains(&w) && Workload::parse(w).is_some(), "{w}");
        }
    }
}
