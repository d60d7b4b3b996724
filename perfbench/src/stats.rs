//! Percentiles, the in-memory span recorder, and the process's peak RSS.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The fewest samples a tail percentile must have beyond it to be reported.
pub(crate) const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of ascending `sorted`.
fn rank(sorted: &[u64], q: f64) -> usize {
    ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1
}

/// The median of ascending `sorted` (nearest rank), `None` when empty.
pub(crate) fn median(sorted: &[u64]) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted, 0.5)])
}

/// The `q`-quantile of ascending `sorted`, reported only when at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it: a tail read off fewer
/// samples is one or two outliers, not a percentile.
pub(crate) fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let at = rank(sorted, q);
    (sorted.len() - at > TAIL_MIN_BEYOND).then(|| sorted[at])
}

/// Sorts in place and returns the slice, for the helpers above.
pub(crate) fn sorted(v: &mut [u64]) -> &[u64] {
    v.sort_unstable();
    v
}

/// Op latencies in completion order, cut into windows of `window` ops.
/// Each window also records the share of host CPU time stolen from this
/// machine while it ran: on a shared host another tenant's burst stalls a
/// virtual CPU for milliseconds, which swamps every tail percentile, so
/// the end-to-end statistics are taken over the quieter windows.
pub(crate) struct OpLog {
    window: usize,
    latency_ns: Vec<u64>,
    /// Completion time and host CPU ticks at the start and at the end of
    /// each complete window.
    marks: Vec<(u64, Option<HostTicks>)>,
}

/// The quiet windows are the `1 / QUIET_DIV` with the least steal.
const QUIET_DIV: usize = 4;

/// Cumulative host CPU ticks: (stolen, all).
type HostTicks = (u64, u64);

/// The host's CPU tick counters from `/proc/stat`, where available.
fn host_ticks() -> Option<HostTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// One complete window of an [`OpLog`].
pub(crate) struct OpWindow {
    pub(crate) ops_per_s: f64,
    pub(crate) latency_ns: Vec<u64>,
    /// Share of host CPU time stolen during the window (0 if unknown).
    pub(crate) steal: f64,
}

impl OpLog {
    pub(crate) fn new(window: usize, start_ns: u64) -> OpLog {
        OpLog {
            window,
            latency_ns: Vec::new(),
            marks: vec![(start_ns, host_ticks())],
        }
    }

    /// Logs one op that completed at `now_ns` after `latency_ns`; a failed
    /// op is logged as `u64::MAX`, missing every latency limit.
    pub(crate) fn push(&mut self, latency_ns: u64, now_ns: u64) {
        self.latency_ns.push(latency_ns);
        if self.latency_ns.len().is_multiple_of(self.window) {
            self.marks.push((now_ns, host_ticks()));
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.latency_ns.len()
    }

    /// Every latency, in completion order.
    pub(crate) fn latencies(&self) -> &[u64] {
        &self.latency_ns
    }

    /// The complete windows with the least steal: those at or below the
    /// steal share of the quietest quarter, so at least a quarter of them,
    /// and all when steal is unknown or the same everywhere.
    pub(crate) fn quiet_windows(&self) -> Vec<OpWindow> {
        let windows: Vec<OpWindow> = self
            .latency_ns
            .chunks_exact(self.window)
            .zip(self.marks.windows(2))
            .map(|(lat, m)| {
                let ((t0, h0), (t1, h1)) = (m[0], m[1]);
                let steal = match (h0, h1) {
                    (Some((s0, a0)), Some((s1, a1))) if a1 > a0 => {
                        (s1 - s0) as f64 / (a1 - a0) as f64
                    }
                    _ => 0.0,
                };
                OpWindow {
                    ops_per_s: self.window as f64 / ((t1 - t0) as f64 / 1e9),
                    latency_ns: lat.to_vec(),
                    steal,
                }
            })
            .collect();
        if windows.is_empty() {
            return windows;
        }
        let mut steal: Vec<f64> = windows.iter().map(|w| w.steal).collect();
        steal.sort_by(f64::total_cmp);
        let limit = steal[(steal.len() - 1) / QUIET_DIV];
        windows.into_iter().filter(|w| w.steal <= limit).collect()
    }
}

/// The median of `f64` values (mean of the middle pair for even counts).
pub(crate) fn median_f64(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One recorded span: a call into a layer, timed from the benchmark side.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    /// 1-based index of the enclosing span; 0 for a root.
    pub(crate) parent: u32,
    /// The operation (batch, snapshot or invocation) the span belongs to.
    pub(crate) op: u64,
}

/// Spans kept in memory, capped so a long traced run cannot exhaust it.
const MAX_SPANS: usize = 4 << 20;

/// The traced run's span recorder. Off in untraced runs: every call is
/// then a branch, and no clock is read on its behalf.
pub(crate) struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub(crate) fn new(t0: Instant) -> Tracer {
        Tracer {
            on: false,
            t0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub(crate) fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the run's epoch.
    pub(crate) fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when off or full).
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() as u32
    }

    /// Opens a span now; [`Tracer::close`] sets its end. Returns its id
    /// (0 when off or full), for children to name as their parent.
    pub(crate) fn open(&mut self, name: &'static str, op: u64, parent: u32) -> u32 {
        if !self.on {
            return 0;
        }
        let now = self.now();
        self.record(name, op, parent, now, now)
    }

    /// Ends the span `id` opened now.
    pub(crate) fn close(&mut self, id: u32) {
        if id != 0 {
            let now = self.now();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Times `f` as a span named `name`.
    pub(crate) fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, op, parent, start, end);
        out
    }

    /// Ascending durations of every span named `name`.
    pub(crate) fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Writes every span as tab-separated rows:
    /// `id name start_ns end_ns parent op`.
    pub(crate) fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# dropped\t{}", self.dropped)?;
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            )?;
        }
        out.flush()
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&v, 0.999), Some(9_990), "10 samples beyond p99.9");
        assert_eq!(tail(&v[..9_999], 0.999), None, "only 9 beyond");
        assert_eq!(tail(&v[..1_000], 0.99), Some(990));
        assert_eq!(tail(&v[..999], 0.99), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn op_logs_keep_complete_windows() {
        let mut log = OpLog::new(1_000, 0);
        for i in 0..2_500u64 {
            // The second window is twice as slow.
            let done = if i < 1_000 {
                i + 1
            } else {
                2 * (i + 1) - 1_000
            };
            log.push(i % 1_000, done * 1_000);
        }
        assert_eq!(log.len(), 2_500);
        let windows = log.quiet_windows();
        // Steal is the same or unknown for both, so both are quiet; the
        // partial third window is left out.
        assert!(windows.len() <= 2 && !windows.is_empty());
        for w in &windows {
            assert_eq!(tail(sorted(&mut w.latency_ns.clone()), 0.99), Some(989));
            assert!(w.ops_per_s == 1e6 || w.ops_per_s == 5e5, "{}", w.ops_per_s);
        }
    }

    #[test]
    fn median_is_the_middle_sample() {
        assert_eq!(median(&[1, 2, 3]), Some(2));
        assert_eq!(median(&[]), None);
        assert_eq!(median_f64(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tracer_records_only_when_on() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.span("x", 1, 0, || 7), 7);
        assert!(t.durations("x").is_empty());
        t.set_on(true);
        let root = t.record("root", 1, 0, 0, 100);
        t.span("x", 1, root, || ());
        assert_eq!(t.durations("root"), vec![100]);
        assert_eq!(t.durations("x").len(), 1);
        assert_eq!(t.spans[1].parent, root);
    }
}
